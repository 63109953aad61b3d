package segment

import (
	"testing"

	"listrank/internal/core"
	"listrank/internal/list"
	"listrank/internal/rng"
)

// oracle computes rank, +scan and max-scan serially.
func oracle(next, val []int64, head int64) (rank, scan, opscan []int64) {
	n := len(next)
	rank = make([]int64, n)
	scan = make([]int64, n)
	opscan = make([]int64, n)
	if n == 0 {
		return
	}
	v, r, s, m := head, int64(0), int64(0), int64(-1<<62)
	for {
		rank[v], scan[v], opscan[v] = r, s, m
		r, s = r+1, s+val[v]
		if val[v] > m {
			m = val[v]
		}
		if next[v] == v {
			break
		}
		v = next[v]
	}
	return
}

func maxOp(a, b int64) int64 {
	if b > a {
		return b
	}
	return a
}

func buildList(t *testing.T, kind string, n int, seed uint64) *list.List {
	t.Helper()
	if n == 0 {
		return &list.List{Next: []int64{}, Value: []int64{}}
	}
	switch kind {
	case "ordered":
		return list.NewOrdered(n)
	case "reversed":
		return list.NewReversed(n)
	case "random":
		return list.NewRandom(n, rng.New(seed))
	default:
		t.Fatalf("unknown list kind %q", kind)
		return nil
	}
}

// TestScratchMatchesOracle exercises the in-memory orchestration
// directly against the serial oracle across segment counts, shapes,
// sizes straddling cut multiples, and both dispatch paths.
func TestScratchMatchesOracle(t *testing.T) {
	sc := NewScratch()
	got := make([]int64, 0, 4096)
	for _, kind := range []string{"ordered", "reversed", "random"} {
		for _, S := range []int{1, 2, 3, 7, 64} {
			for _, n := range []int{0, 1, 2, 3, 4*S - 1, 4 * S, 4*S + 1, 1000} {
				l := buildList(t, kind, n, uint64(n*31+S))
				val := make([]int64, n)
				for i := range val {
					val[i] = int64((i*2654435761)%17 - 8)
				}
				rank, scan, opscan := oracle(l.Next, val, l.Head)
				plan := NewPlan(n, S)
				got = got[:0]
				got = append(got, make([]int64, n)...)
				for _, procs := range []int{1, 4} {
					opt := Options{Procs: procs, Seed: 42}
					sc.RankInto(got, l.Next, l.Head, plan, opt)
					checkEq(t, kind, S, n, procs, "rank", got, rank)
					sc.ScanInto(got, l.Next, val, l.Head, plan, opt)
					checkEq(t, kind, S, n, procs, "scan", got, scan)
					sc.ScanOpInto(got, l.Next, val, l.Head, maxOp, -1<<62, plan, opt)
					checkEq(t, kind, S, n, procs, "scanop", got, opscan)
				}
			}
		}
	}
}

func checkEq(t *testing.T, kind string, S, n, procs int, what string, got, want []int64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s S=%d n=%d procs=%d: %s[%d] = %d, want %d", kind, S, n, procs, what, i, got[i], want[i])
		}
	}
}

// TestMalformedPanics checks the structural-validation side effect:
// inputs that are not a single chain over all vertices must panic
// list.ErrNotList rather than return garbage.
func TestMalformedPanics(t *testing.T) {
	mustPanic := func(name string, segs int, next []int64, head int64) {
		t.Helper()
		defer func() {
			if r := recover(); r != list.ErrNotList {
				t.Fatalf("%s: recovered %v, want list.ErrNotList", name, r)
			}
		}()
		sc := NewScratch()
		dst := make([]int64, len(next))
		sc.RankInto(dst, next, head, NewPlan(len(next), segs), Options{Procs: 1})
	}

	// Link outside [0, n).
	mustPanic("oob-link", 3, []int64{1, 2, 99, 3, 4, 5, 6, 6}, 0)
	// Full cycle crossing segments: no tail, head mid-cycle.
	mustPanic("cycle", 3, []int64{1, 2, 3, 4, 5, 6, 7, 0}, 0)
	// In-segment cycle: 6→7→6 with the main chain stopping at 5.
	mustPanic("seg-cycle", 3, []int64{1, 2, 3, 4, 5, 5, 7, 6}, 0)
	// Two predecessors converging on a boundary head (0→4 and 3→4).
	mustPanic("converge", 3, []int64{4, 2, 3, 4, 5, 6, 7, 7}, 0)
	// Two predecessors converging inside one segment: 8 vertices,
	// chain 0..5 then 5→5, but 6→1 re-enters segment 0's chain from
	// segment 2 — vertex 1 visited twice, vertex 7 (tailless) never.
	mustPanic("overlap", 3, []int64{1, 2, 3, 4, 5, 5, 1, 7}, 0)
	// Head out of range.
	mustPanic("bad-head", 3, []int64{1, 2, 3, 3}, 9)
	// The head is the tail, and 1→2→3→1 is a cycle crossing both
	// segments. Every run walk and the duplicate-head check pass; the
	// reduced list is node 0's self-loop beside a 2-node cycle, which
	// only Phase 2's rank refuses.
	mustPanic("reduced-cycle", 2, []int64{0, 2, 3, 1}, 0)
}

// TestCancelTripsPhase1 checks the cooperative-cancellation protocol:
// a pre-tripped token aborts the call with panic(core.ErrCanceled).
func TestCancelTripsPhase1(t *testing.T) {
	n := 1 << 15
	l := list.NewRandom(n, rng.New(7))
	dst := make([]int64, n)
	var c core.Cancel
	c.Trip()
	defer func() {
		if r := recover(); r != core.ErrCanceled {
			t.Fatalf("recovered %v, want core.ErrCanceled", r)
		}
	}()
	NewScratch().RankInto(dst, l.Next, l.Head, NewPlan(n, 8), Options{Procs: 4, Cancel: &c})
}
