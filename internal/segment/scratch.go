package segment

import (
	"math"
	"slices"

	"listrank/internal/arena"
	"listrank/internal/core"
	"listrank/internal/list"
	"listrank/internal/par"
)

// Options configures one segmented ranking call.
type Options struct {
	// Procs bounds worker parallelism across segments and inside the
	// boundary-list rank; 0 means GOMAXPROCS.
	Procs int
	// Seed seeds the boundary-list rank's splitter selection.
	Seed uint64
	// Cancel, when non-nil, is polled cooperatively; a tripped token
	// abandons the call with panic(core.ErrCanceled).
	Cancel *core.Cancel
}

// Scratch is the reusable working-space arena for segmented ranking:
// per-segment exit/inbox staging for Prepare, the boundary-node arrays
// (heads, per-run sums/exits/successors/offsets), the per-vertex
// run-id table, and a core arena for the Phase 2 boundary rank. Like
// core.Scratch it may be reused across calls of any size but must not
// be shared by two concurrent calls, and a warm arena services any
// number of calls without touching the heap.
type Scratch struct {
	// exits[s] stages segment s's out-links (Prepare pass A, written
	// in parallel, disjoint per segment); inbox[t] regroups them by
	// target segment (serial assembly).
	exits [][]int64
	inbox [][]int64

	// Boundary-node arrays, one entry per run, grouped by segment and
	// ascending within it: head vertex, per-run total, exit vertex
	// (-1 for the global tail), successor node, boundary offset.
	// base[s] is the first node of segment s (int32: the run-id table
	// caps the boundary list at 2^31 nodes).
	headv []int64
	base  []int32
	sum   []int64
	exitv []int64
	succ  []int64
	pfx   []int64

	// runid maps every vertex to its run's boundary node.
	runid []int32

	// cuts backs EvenPlan, the allocation-free plan constructor.
	cuts []int

	// cs is the core arena for the Phase 2 boundary rank, created on
	// first use and reused for every later call; reduced is the list
	// header it ranks, built in place over succ and sum so no list.List
	// is allocated per call.
	cs      *core.Scratch
	reduced list.List

	// pool is the resident worker pool for segment fan-outs; nil
	// selects the process-wide shared pool.
	pool *par.Pool

	// fc stashes per-call arguments for the closure-free pool tasks,
	// exactly as in core.Scratch: fan-out sites write varying
	// arguments here and pass the Scratch as the dispatch context, so
	// steady-state calls allocate nothing.
	fc struct {
		plan             Plan
		next, value, dst []int64
		op               func(a, b int64) int64
		identity         int64
		cancel           *core.Cancel
		mode             Mode
	}
}

// NewScratch returns an empty arena; buffers are allocated lazily and
// grow geometrically.
func NewScratch() *Scratch { return &Scratch{} }

// SetPool selects the resident worker pool for segment fan-outs and
// the Phase 2 boundary rank; nil (the default) selects par.Shared().
func (sc *Scratch) SetPool(pl *par.Pool) {
	sc.pool = pl
	if sc.cs != nil {
		sc.cs.SetPool(pl)
	}
}

func (sc *Scratch) fanout() *par.Pool {
	if sc.pool != nil {
		return sc.pool
	}
	return par.Shared()
}

// coreScratch returns the Phase 2 arena, created on first use.
func (sc *Scratch) coreScratch() *core.Scratch {
	if sc.cs == nil {
		sc.cs = core.NewScratch()
		sc.cs.SetPool(sc.pool)
	}
	return sc.cs
}

// releaseCall drops the stash's references to caller-owned storage so
// a held or pooled arena never keeps a finished problem alive.
func (sc *Scratch) releaseCall() {
	sc.fc.plan = Plan{}
	sc.fc.next, sc.fc.value, sc.fc.dst = nil, nil, nil
	sc.fc.op = nil
	sc.fc.cancel = nil
}

// EvenPlan is NewPlan drawing the cut table from the arena, so warm
// steady-state calls allocate nothing. The plan aliases the arena and
// is valid until the next EvenPlan call on this Scratch.
func (sc *Scratch) EvenPlan(n, s int) Plan {
	s = clampSegs(n, s)
	sc.cuts = arena.Grow(sc.cuts, s+1)
	fillEven(sc.cuts, n, s)
	return Plan{n: n, cuts: sc.cuts}
}

// growLists resizes a staging table to s reset (length-0) lists while
// keeping every sub-slice's warm capacity.
func growLists(ls [][]int64, s int) [][]int64 {
	if cap(ls) < s {
		nl := make([][]int64, s)
		copy(nl, ls[:cap(ls)])
		ls = nl
	}
	ls = ls[:s]
	for i := range ls {
		ls[i] = ls[i][:0]
	}
	return ls
}

// Prepare runs pass A of Phase 1 over next (parallel per-segment exit
// discovery) and the serial assembly that turns exits into the
// boundary-node table: every exit target plus the global head becomes
// a run head, grouped by segment and sorted ascending within it. It
// returns B, the boundary-list size, and panics list.ErrNotList on a
// link outside [0, n), an out-of-range head, or a vertex with two
// predecessors. next is retained in the stash until releaseCall.
// A zero-length plan returns 0 without touching head.
func (sc *Scratch) Prepare(next []int64, head int64, plan Plan, opt Options) int {
	n := plan.Len()
	if len(next) != n {
		panic("segment: next length disagrees with plan")
	}
	sc.PrepareBegin(plan)
	sc.runid = arena.Grow(sc.runid, n)
	if n == 0 {
		return 0
	}
	S := plan.Segments()
	sc.fc.next = next
	if p := par.Procs(opt.Procs, S); p == 1 {
		for s := 0; s < S; s++ {
			sc.analyzeSegment(s)
		}
	} else {
		sc.fanout().ForChunksCtx(S, p, sc, taskAnalyze)
	}
	return sc.Assemble(head)
}

// PrepareBegin resets the staging tables for a new call over plan.
// Backends that stage their own per-vertex windows (out-of-core)
// follow with one AnalyzeWindow per segment and then Assemble; the
// in-memory Prepare does exactly that over slices of the full array.
func (sc *Scratch) PrepareBegin(plan Plan) {
	S := plan.Segments()
	sc.exits = growLists(sc.exits, S)
	sc.inbox = growLists(sc.inbox, S)
	sc.headv = sc.headv[:0]
	sc.base = arena.Zeroed(sc.base, S+1)
	sc.fc.plan = plan
}

func taskAnalyze(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	for s := lo; s < hi; s++ {
		sc.analyzeSegment(s)
	}
}

func (sc *Scratch) analyzeSegment(s int) {
	lo, hi := sc.fc.plan.Bounds(s)
	sc.AnalyzeWindow(s, sc.fc.next[lo:hi])
}

// AnalyzeWindow runs pass A over segment s given its next window
// (length Bounds(s) extent): it records links leaving the segment,
// guarding every link against [0, n). Self-loops (the global tail
// convention) are not exits. Distinct segments may be analyzed
// concurrently.
func (sc *Scratch) AnalyzeWindow(s int, next []int64) {
	lo, hi := sc.fc.plan.Bounds(s)
	if len(next) != hi-lo {
		panic("segment: window length disagrees with plan")
	}
	n := uint64(sc.fc.plan.Len())
	ex := sc.exits[s][:0]
	for i, nx := range next {
		v := int64(lo + i)
		if uint64(nx) >= n {
			panic(list.ErrNotList) // link outside the list
		}
		if nx != v && (nx < int64(lo) || nx >= int64(hi)) {
			ex = append(ex, nx)
		}
	}
	sc.exits[s] = ex
}

// Assemble finishes preparation once every segment's window has been
// analyzed, returning B. See Prepare.
func (sc *Scratch) Assemble(head int64) int {
	B := sc.assemble(sc.fc.plan, head)
	sc.sum = arena.Grow(sc.sum, B)
	sc.exitv = arena.Grow(sc.exitv, B)
	return B
}

// assemble regroups exits by target segment, adds the global head,
// sorts each group and builds headv/base. Duplicate heads mean two
// predecessors — malformed.
func (sc *Scratch) assemble(plan Plan, head int64) int {
	if uint64(head) >= uint64(plan.Len()) {
		panic(list.ErrNotList)
	}
	S := plan.Segments()
	sc.inbox[plan.Find(head)] = append(sc.inbox[plan.Find(head)], head)
	for s := 0; s < S; s++ {
		for _, w := range sc.exits[s] {
			t := plan.Find(w)
			sc.inbox[t] = append(sc.inbox[t], w)
		}
	}
	for t := 0; t < S; t++ {
		in := sc.inbox[t]
		slices.Sort(in)
		for i := 1; i < len(in); i++ {
			if in[i] == in[i-1] {
				panic(list.ErrNotList) // vertex with two predecessors
			}
		}
		sc.headv = append(sc.headv, in...)
		if len(sc.headv) > math.MaxInt32 {
			panic("segment: boundary list exceeds 2^31 nodes")
		}
		sc.base[t+1] = int32(len(sc.headv))
	}
	return len(sc.headv)
}

// nodeOf resolves a vertex known to be a run head to its boundary
// node: binary search within its segment's head group.
func (sc *Scratch) nodeOf(plan Plan, v int64) (int64, bool) {
	t := plan.Find(v)
	b0 := int(sc.base[t])
	i, ok := slices.BinarySearch(sc.headv[b0:sc.base[t+1]], v)
	return int64(b0 + i), ok
}

// Stitch links the per-run totals into the reduced boundary list after
// every segment's Phase 1 walk has filled sum/exit: succ[j] is the
// node owning run j's exit vertex (self for the global tail). It does
// not walk the reduced list: Phase2's rank refuses one that is not a
// single chain, which with the per-segment coverage checks proves the
// input was one. Returns the reduced head node.
func (sc *Scratch) Stitch(plan Plan, head int64) int64 {
	B := len(sc.headv)
	sc.succ = arena.Grow(sc.succ, B)
	for j := 0; j < B; j++ {
		if e := sc.exitv[j]; e < 0 {
			sc.succ[j] = int64(j)
		} else {
			nj, ok := sc.nodeOf(plan, e)
			if !ok {
				panic(list.ErrNotList) // exit lands mid-run: input mutated between passes
			}
			sc.succ[j] = nj
		}
	}
	rh, ok := sc.nodeOf(plan, head)
	if !ok {
		panic(list.ErrNotList)
	}
	return rh
}

// Phase2 ranks the reduced boundary list in memory with the full
// sublist engine, writing each run's boundary offset (the scan of
// everything strictly preceding its head) into the offset table the
// Phase 3 broadcast reads. rhead is Stitch's return value. The rank
// panics list.ErrNotList unless the reduced list is one chain from
// rhead; assemble's duplicate-head check keeps it race-free.
func (sc *Scratch) Phase2(rhead int64, mode Mode, op func(a, b int64) int64, identity int64, opt Options) {
	B := len(sc.headv)
	sc.pfx = arena.Grow(sc.pfx, B)
	sc.reduced = list.List{Next: sc.succ[:B], Value: sc.sum[:B], Head: rhead}
	co := core.Options{Procs: opt.Procs, Seed: opt.Seed, Cancel: opt.Cancel}
	if mode == ModeOp {
		core.ScanOpInto(sc.pfx, &sc.reduced, op, identity, co, sc.coreScratch())
	} else {
		core.ScanInto(sc.pfx, &sc.reduced, co, sc.coreScratch())
	}
}

// Nodes returns B, the boundary-list size of the prepared call.
func (sc *Scratch) Nodes() int { return len(sc.headv) }

// Footprint returns the arena's retained heap bytes — the summed
// capacities of every buffer it owns, which persist across calls by
// design. The serving layer reports this to the process memory
// governor for each segmented request, from Prepare to completion.
// The embedded core arena (Phase 2) is not included: it is sized by
// B, the reduced list, which is orders of magnitude smaller than the
// per-vertex tables counted here.
func (sc *Scratch) Footprint() int64 {
	var b int64
	for _, ls := range sc.exits {
		b += int64(cap(ls)) * 8
	}
	for _, ls := range sc.inbox {
		b += int64(cap(ls)) * 8
	}
	b += int64(cap(sc.exits)+cap(sc.inbox)) * 24 // slice headers
	b += int64(cap(sc.headv)+cap(sc.sum)+cap(sc.exitv)+cap(sc.succ)+cap(sc.pfx)) * 8
	b += int64(cap(sc.base)) * 4
	b += int64(cap(sc.runid)) * 4
	b += int64(cap(sc.cuts)) * 8
	return b
}

// Release drops the arena's references to caller-owned storage.
// Backends that drive the step API directly (Prepare and Solve, or
// the per-segment steps, rather than RankInto and friends, which
// release on return) call it when their call completes.
func (sc *Scratch) Release() { sc.releaseCall() }

// SubWindows returns segment s's boundary-node windows (heads, run
// sums, run exits), its first global node index, and the full
// boundary-offset table — for backends that stage the per-vertex
// windows themselves and assemble SubTasks by hand. pfx is valid
// after Phase2.
func (sc *Scratch) SubWindows(s int) (heads, sum, exit []int64, nodeBase int32, pfx []int64) {
	b0, b1 := sc.base[s], sc.base[s+1]
	return sc.headv[b0:b1], sc.sum[b0:b1], sc.exitv[b0:b1], b0, sc.pfx
}

// Sub assembles segment s's self-contained slice of the call — the
// unit both phases fan out over. value may be nil for ModeRank; dst is
// the caller's full result array. Valid after Prepare; Pfx additionally
// requires Phase2.
func (sc *Scratch) Sub(s int, plan Plan, mode Mode, next, value, dst []int64, op func(a, b int64) int64, identity int64) SubTask {
	lo, hi := plan.Bounds(s)
	heads, sum, exit, b0, pfx := sc.SubWindows(s)
	st := SubTask{
		Lo: int64(lo), Hi: int64(hi),
		Next:     next[lo:hi],
		Dst:      dst[lo:hi],
		RunID:    sc.runid[lo:hi],
		Heads:    heads,
		Sum:      sum,
		Exit:     exit,
		NodeBase: b0,
		Pfx:      pfx,
		Mode:     mode,
		Op:       op,
		Identity: identity,
	}
	if value != nil {
		st.Value = value[lo:hi]
	}
	return st
}
