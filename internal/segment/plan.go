// Package segment implements segmented list ranking: the paper's
// Phase 1/2/3 decomposition recursed one level up, so a list too large
// for one engine's arenas — or one machine's RAM — ranks as S
// independent segments plus a small in-memory reduced list.
//
// A segment is a contiguous vertex-index range [cuts[s], cuts[s+1]).
// Within a segment the global chain decomposes into *runs*: maximal
// stretches of the list whose vertices all lie in the segment. A run's
// head is either the global head or a vertex whose predecessor lives
// in another segment, and its exit is the first link leaving the
// segment (or the global tail). Run heads are exactly the paper's
// splitters, chosen by the cut geometry instead of at random:
//
//	Phase 1: each segment walks its runs independently, writing every
//	         vertex's prefix *within its run* and accumulating per-run
//	         totals — touching only that segment's index window, which
//	         is what lets the out-of-core backend keep one segment
//	         resident at a time and the cross-shard backend ship each
//	         segment to a different engine.
//	Phase 2: the runs form a reduced boundary list (per-run totals
//	         linked by exit → next run head), ranked in memory by the
//	         full sublist engine (core.BoundaryScanAddInto).
//	Phase 3: every vertex folds its run's boundary offset into its
//	         local prefix — a pure streaming broadcast
//	         (kernel.BroadcastAdd / BroadcastOp).
//
// The boundary list has one node per cross-segment link (plus one), so
// its size is governed by the list's locality, not by n: a list laid
// out mostly segment-locally — the only kind worth ranking out of
// core — reduces by orders of magnitude, while an adversarial random
// permutation degenerates to a boundary list of ~n nodes and should be
// ranked monolithically instead. Correctness never depends on the cut
// choice; only performance does.
//
// Like the in-arena engine, segmented ranking never mutates the input
// list; unlike it, segmented ranking is fully structurally validating
// as a side effect: per-segment run coverage catches intra-segment
// damage (unreachable vertices, in-segment cycles, duplicate
// predecessors) and the reduced-chain check catches cross-segment
// cycles, so any input that is not a single chain over all n vertices
// panics deterministically instead of producing garbage — the serving
// layer contains that panic to the offending request.
package segment

import "fmt"

// Plan is a segmentation of vertex-index space: segment s owns the
// half-open index range [cuts[s], cuts[s+1]). Empty segments are legal
// (a plan from arbitrary cut points may contain them); they own no
// vertices and produce no runs.
type Plan struct {
	n    int
	cuts []int
}

// NewPlan cuts n vertices into s segments of near-equal length
// (remainder spread over the leading segments). s is clamped to
// [1, max(n, 1)]. Scratch.EvenPlan is the allocation-free variant.
func NewPlan(n, s int) Plan {
	s = clampSegs(n, s)
	cuts := make([]int, s+1)
	fillEven(cuts, n, s)
	return Plan{n: n, cuts: cuts}
}

func clampSegs(n, s int) int {
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1 // also n == 0: a single empty segment
	}
	return s
}

// fillEven writes the even cut table for s segments over n vertices
// into cuts, which must have length s+1.
func fillEven(cuts []int, n, s int) {
	q, r := n/s, n%s
	cuts[0] = 0
	for i := 1; i <= s; i++ {
		cuts[i] = cuts[i-1] + q
		if i <= r {
			cuts[i]++
		}
	}
	cuts[s] = n
}

// PlanFromCuts builds a plan from explicit cut points: cuts must be
// nondecreasing, start at 0 and end at n. The slice is retained.
func PlanFromCuts(n int, cuts []int) (Plan, error) {
	if len(cuts) < 2 || cuts[0] != 0 || cuts[len(cuts)-1] != n {
		return Plan{}, fmt.Errorf("segment: cuts must run 0..%d, got %v", n, cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] < cuts[i-1] {
			return Plan{}, fmt.Errorf("segment: cuts not nondecreasing at %d: %v", i, cuts)
		}
	}
	return Plan{n: n, cuts: cuts}, nil
}

// Len returns the number of vertices the plan covers.
func (p Plan) Len() int { return p.n }

// Segments returns S, the number of segments.
func (p Plan) Segments() int { return len(p.cuts) - 1 }

// Bounds returns segment s's index range [lo, hi).
func (p Plan) Bounds(s int) (lo, hi int) { return p.cuts[s], p.cuts[s+1] }

// Find returns the segment containing vertex v — the unique s with
// cuts[s] <= v < cuts[s+1]. v must be in [0, n).
func (p Plan) Find(v int64) int {
	// Binary search for the first s with v < cuts[s+1]; empty segments
	// (cuts[s] == cuts[s+1]) can never win.
	lo, hi := 0, p.Segments()-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v < int64(p.cuts[mid+1]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
