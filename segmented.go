package listrank

import (
	"runtime"
	"sync"

	"listrank/internal/segment"
)

// Segmented ranking: the paper's Phase 1/2/3 decomposition recursed
// one level up (see internal/segment). A list is cut into S
// contiguous index segments whose runs are ranked independently, the
// reduced boundary list is ranked in memory by the sublist engine,
// and boundary offsets are broadcast back. Segments never interact
// during Phases 1 and 3, which is what lets the same decomposition
// back the out-of-core engine (OutOfCore); the same in-core driver
// serves a Server's segmented requests (ServerOptions.AutoSegment,
// Request.Segments).
//
// Like the monolithic entry points, segmented calls never mutate the
// input list, and a list that is not a single chain over all vertices
// panics with an error for which errors.Is(err, ErrNotList) holds (the
// serving layer contains the panic when inputs are untrusted).

// SegmentedOptions configures the segmented entry points.
type SegmentedOptions struct {
	// Segments is S, the number of cuts; 0 picks one segment per
	// worker (min 2). Values are clamped to [1, n].
	Segments int
	// Procs is the number of worker goroutines; 0 means GOMAXPROCS.
	Procs int
	// Seed seeds the boundary-list rank's splitter selection.
	Seed uint64
}

func (o SegmentedOptions) procs() int {
	if o.Procs > 0 {
		return o.Procs
	}
	return runtime.GOMAXPROCS(0)
}

func (o SegmentedOptions) segments() int {
	if o.Segments > 0 {
		return o.Segments
	}
	return max(2, o.procs())
}

// segScratchPool backs the package-level segmented entry points, so
// repeated calls reuse working space exactly as the engine pool does.
// Plans are drawn from the pooled arena too (EvenPlan), keeping warm
// calls allocation-free end to end.
var segScratchPool = sync.Pool{New: func() any { return segment.NewScratch() }}

func getSegScratch() *segment.Scratch   { return segScratchPool.Get().(*segment.Scratch) }
func putSegScratch(sc *segment.Scratch) { segScratchPool.Put(sc) }

// SegmentedRankInto writes the rank of every vertex of l into dst
// using segmented ranking with opt.Segments cuts. dst must have
// length l.Len(); l is not mutated.
func SegmentedRankInto(dst []int64, l *List, opt SegmentedOptions) {
	checkDst(dst, l, "SegmentedRankInto")
	sc := getSegScratch()
	defer putSegScratch(sc)
	plan := sc.EvenPlan(l.Len(), opt.segments())
	sc.RankInto(dst, l.Next, l.Head, plan, segment.Options{Procs: opt.procs(), Seed: opt.Seed})
}

// SegmentedScanInto writes the exclusive integer-addition scan of l's
// values into dst using segmented ranking.
func SegmentedScanInto(dst []int64, l *List, opt SegmentedOptions) {
	checkDst(dst, l, "SegmentedScanInto")
	sc := getSegScratch()
	defer putSegScratch(sc)
	plan := sc.EvenPlan(l.Len(), opt.segments())
	sc.ScanInto(dst, l.Next, l.Value, l.Head, plan, segment.Options{Procs: opt.procs(), Seed: opt.Seed})
}

// SegmentedScanOpInto is SegmentedScanInto under an arbitrary
// associative operator with the given identity, folding strictly
// preceding values in list order.
func SegmentedScanOpInto(dst []int64, l *List, op func(a, b int64) int64, identity int64, opt SegmentedOptions) {
	checkDst(dst, l, "SegmentedScanOpInto")
	sc := getSegScratch()
	defer putSegScratch(sc)
	plan := sc.EvenPlan(l.Len(), opt.segments())
	sc.ScanOpInto(dst, l.Next, l.Value, l.Head, op, identity, plan, segment.Options{Procs: opt.procs(), Seed: opt.Seed})
}

// SegmentedRank is SegmentedRankInto allocating its result slice.
func SegmentedRank(l *List, opt SegmentedOptions) []int64 {
	out := make([]int64, l.Len())
	SegmentedRankInto(out, l, opt)
	return out
}

// SegmentedScan is SegmentedScanInto allocating its result slice.
func SegmentedScan(l *List, opt SegmentedOptions) []int64 {
	out := make([]int64, l.Len())
	SegmentedScanInto(out, l, opt)
	return out
}
