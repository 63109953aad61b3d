package core

import (
	"listrank/internal/chaos"
	"listrank/internal/kernel"
)

// Strip wrappers around the Phase 1/3 kernels: each runs its kernel
// over [lo, hi) in cancelStride-sublist strips (streamStride-vertex
// strips for the Phase 3 stream), polling the Cancel token (and the
// chaos chunk hook) between strips. Sublists and streamed vertices are
// independent, so splitting the range changes nothing about the
// results — only how often the worker surfaces for air. A worker that
// observes cancellation simply stops; the orchestrator's next
// phase-boundary checkpoint turns the partial phase into ErrCanceled.
// With a nil token the poll is two predictable branches per strip
// (cancelStride sublists of ~log n links each, or streamStride
// streamed vertices), which is the "bounded check cost" EXPERIMENTS.md
// quantifies.

// stripRecord runs the Phase 1 record kernel of layout lay over
// sublists [lo, hi); op (nil for addition) and identity are the wide
// layout's.
func stripRecord(cn *Cancel, out []int64, enc []uint64, h, sum, cur []int64, lay layout, op func(a, b int64) int64, identity int64, lo, hi, lanes int) {
	for s := lo; s < hi; s += cancelStride {
		chaos.Point(chaos.PointChunk)
		if cn.Canceled() {
			return
		}
		e := min(s+cancelStride, hi)
		switch lay {
		case narrowRank:
			kernel.RecordRank(enc, h, sum, cur, s, e, lanes)
		case narrowScan:
			kernel.RecordScan(out, enc, h, sum, cur, s, e, lanes)
		default:
			kernel.RecordOp(enc, h, sum, cur, op, identity, s, e, lanes)
		}
	}
}

// stripStream runs the Phase 3 stream of layout lay over vertices
// [lo, hi), in streamStride-vertex strips; op (nil for addition) is
// the wide layout's.
func stripStream(cn *Cancel, out []int64, enc []uint64, pfx []int64, lay layout, op func(a, b int64) int64, lo, hi int) {
	for s := lo; s < hi; s += streamStride {
		chaos.Point(chaos.PointChunk)
		if cn.Canceled() {
			return
		}
		e := min(s+streamStride, hi)
		switch lay {
		case narrowRank:
			kernel.StreamRank(out, enc, pfx, s, e)
		case narrowScan:
			kernel.StreamScan(out, enc, pfx, s, e)
		default:
			kernel.StreamOp(out, enc, pfx, op, s, e)
		}
	}
}
