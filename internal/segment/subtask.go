package segment

import (
	"listrank/internal/core"
	"listrank/internal/kernel"
	"listrank/internal/list"
)

// Mode selects what a segmented call computes.
type Mode int

const (
	// ModeRank: each vertex's number of predecessors (scan of unit
	// values under +); Value is ignored.
	ModeRank Mode = iota
	// ModeScan: exclusive integer-addition prefix of Value.
	ModeScan
	// ModeOp: exclusive prefix of Value under Op with Identity.
	ModeOp
)

// SubTask is one segment's self-contained slice of a segmented
// ranking call: the windows of the caller's arrays this segment owns
// plus its group of boundary nodes. Phase 1 and Phase 3 touch nothing
// outside the SubTask (Pfx is read-only in Phase 3), so subtasks run
// concurrently without coordination — on pool workers in the
// in-memory path, one at a time in the out-of-core path.
type SubTask struct {
	// Lo, Hi are the segment's global vertex range; every window below
	// has length Hi-Lo and is indexed by v-Lo.
	Lo, Hi int64
	// Next, Value, Dst are windows of the caller's arrays (Value is
	// nil for ModeRank; Next is read-only).
	Next, Value, Dst []int64
	// RunID receives each vertex's boundary node in Phase 1 and
	// directs the Phase 3 gather.
	RunID []int32
	// Heads, Sum, Exit are this segment's boundary-node group (window
	// of the Scratch's node arrays): run heads ascending; Phase 1
	// fills Sum (per-run total) and Exit (exit vertex, -1 for the
	// global tail). NodeBase is the group's first global node index.
	Heads, Sum, Exit []int64
	NodeBase         int32
	// Pfx is the full boundary-offset table (Phase 3 only).
	Pfx []int64

	Mode     Mode
	Op       func(a, b int64) int64
	Identity int64
}

// Phase1 walks the segment's runs: for every run head, chase Next
// within [Lo, Hi), writing each vertex's within-run prefix to Dst and
// its boundary node to RunID, and record the run's total and exit.
// Panics list.ErrNotList unless the runs cover the segment exactly —
// every vertex visited once (a -1 sentinel prefilled into RunID
// catches revisits, which also subsumes in-segment cycles; the
// visited count catches unreached vertices) — the per-segment half of
// structural validation. Panics core.ErrCanceled if cancel trips;
// cancel may be nil.
func (t *SubTask) Phase1(cancel *core.Cancel) {
	if !t.phase1(cancel) {
		panic(core.ErrCanceled)
	}
}

// phase1 is Phase1 returning false instead of panicking on
// cancellation, for pool workers (which must not unwind the pool;
// the orchestrator re-checks the token after the fan-out).
func (t *SubTask) phase1(cancel *core.Cancel) bool {
	n := t.Hi - t.Lo
	for i := range t.RunID {
		t.RunID[i] = -1
	}
	visited := int64(0)
	for j := range t.Heads {
		w := t.Heads[j] - t.Lo
		if uint64(w) >= uint64(n) {
			panic(list.ErrNotList) // head outside its segment: Scratch misuse
		}
		var acc int64
		if t.Mode == ModeOp {
			acc = t.Identity
		}
		exit := int64(-1)
		steps := int64(0)
		for {
			if t.RunID[w] != -1 {
				panic(list.ErrNotList) // revisit: overlapping runs or in-segment cycle
			}
			t.Dst[w] = acc
			t.RunID[w] = t.NodeBase + int32(j)
			steps++
			switch t.Mode {
			case ModeRank:
				acc++
			case ModeScan:
				acc += t.Value[w]
			default:
				acc = t.Op(acc, t.Value[w])
			}
			nx := t.Next[w]
			if nx == t.Lo+w {
				break // self-loop: the global tail
			}
			if nw := nx - t.Lo; uint64(nw) < uint64(n) {
				w = nw
			} else {
				exit = nx
				break
			}
			if steps&1023 == 0 && cancel.Canceled() {
				return false
			}
		}
		t.Sum[j] = acc
		t.Exit[j] = exit
		visited += steps
	}
	if visited != n {
		panic(list.ErrNotList) // unreached vertices, or runs overlapped
	}
	return true
}

// broadcastStrip sizes the cancellation poll granularity of Phase 3:
// one strip is ~64k vertices, well under a millisecond of memcpy-rate
// streaming.
const broadcastStrip = 1 << 16

// Phase3 folds each vertex's boundary offset into its local prefix,
// streaming the segment's Dst/RunID windows through the broadcast
// kernel in strips with a cancellation poll between strips. Panics
// core.ErrCanceled if cancel trips; cancel may be nil.
func (t *SubTask) Phase3(cancel *core.Cancel) {
	if !t.phase3(cancel) {
		panic(core.ErrCanceled)
	}
}

func (t *SubTask) phase3(cancel *core.Cancel) bool {
	for o := 0; o < len(t.Dst); o += broadcastStrip {
		if cancel.Canceled() {
			return false
		}
		e := min(o+broadcastStrip, len(t.Dst))
		if t.Mode == ModeOp {
			kernel.BroadcastOp(t.Dst[o:e], t.RunID[o:e], t.Pfx, t.Op)
		} else {
			kernel.BroadcastAdd(t.Dst[o:e], t.RunID[o:e], t.Pfx)
		}
	}
	return true
}
