package core

import "listrank/internal/list"

// Segment-rank entry points: Phase 2 of segmented ranking
// (internal/segment), exposed so the segmentation layer can scan its
// reduced boundary list with the full sublist engine — serial below
// the cutoff, Wyllie at moderate sizes, recursive contraction when a
// pathological cut pattern makes the boundary list large — without
// materializing a list.List of its own. The boundary list arrives as
// the parallel arrays segmented ranking naturally produces (per-run
// sums linked by per-run successor node indices); the reused header in
// the Scratch keeps the view conversion off the heap, so these calls
// inherit the engine's zero-allocation steady state. Like any list
// handed to the engine, the arrays are only read.

// BoundaryScanAddInto writes the exclusive integer-addition scan of
// the boundary list — values `sum` linked by `next`, first node
// `head` — into pfx, which must have the same length. Working space
// comes from sc (nil borrows a pooled arena).
func BoundaryScanAddInto(pfx, next, sum []int64, head int64, opt Options, sc *Scratch) {
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	defer sc.releaseCall()
	defer func() { sc.bl = list.List{} }()
	sc.bl = list.List{Next: next, Value: sum, Head: head}
	encoded(pfx, &sc.bl, sum, nil, 0, opt, 0, sc)
}

// BoundaryScanOpInto is BoundaryScanAddInto under an arbitrary
// associative operator with the given identity, folding in list order
// (safe for non-commutative operators).
func BoundaryScanOpInto(pfx, next, sum []int64, head int64, op func(a, b int64) int64, identity int64, opt Options, sc *Scratch) {
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	defer sc.releaseCall()
	defer func() { sc.bl = list.List{} }()
	sc.bl = list.List{Next: next, Value: sum, Head: head}
	encoded(pfx, &sc.bl, sum, op, identity, opt, 0, sc)
}
