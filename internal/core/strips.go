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

func stripSumAdd(cn *Cancel, next, values, h, sum, cur []int64, lo, hi, lanes int) {
	for s := lo; s < hi; s += cancelStride {
		chaos.Point(chaos.PointChunk)
		if cn.Canceled() {
			return
		}
		e := min(s+cancelStride, hi)
		kernel.SumAdd(next, values, h, sum, cur, s, e, lanes)
	}
}

func stripExpandAdd(cn *Cancel, out, next, values, h, pfx []int64, lo, hi, lanes int) {
	for s := lo; s < hi; s += cancelStride {
		chaos.Point(chaos.PointChunk)
		if cn.Canceled() {
			return
		}
		e := min(s+cancelStride, hi)
		kernel.ExpandAdd(out, next, values, h, pfx, s, e, lanes)
	}
}

// stripRecord runs the encoded engine's Phase 1 record kernel — the
// scan or the rank flavor — over sublists [lo, hi).
func stripRecord(cn *Cancel, out []int64, enc []uint64, h, sum, cur []int64, scan bool, lo, hi, lanes int) {
	for s := lo; s < hi; s += cancelStride {
		chaos.Point(chaos.PointChunk)
		if cn.Canceled() {
			return
		}
		e := min(s+cancelStride, hi)
		if scan {
			kernel.RecordScan(out, enc, h, sum, cur, s, e, lanes)
		} else {
			kernel.RecordRank(enc, h, sum, cur, s, e, lanes)
		}
	}
}

// stripStream runs the encoded engine's Phase 3 stream over vertices
// [lo, hi), in streamStride-vertex strips.
func stripStream(cn *Cancel, out []int64, enc []uint64, pfx []int64, scan bool, lo, hi int) {
	for s := lo; s < hi; s += streamStride {
		chaos.Point(chaos.PointChunk)
		if cn.Canceled() {
			return
		}
		e := min(s+streamStride, hi)
		if scan {
			kernel.StreamScan(out, enc, pfx, s, e)
		} else {
			kernel.StreamRank(out, enc, pfx, s, e)
		}
	}
}

func stripSumOp(cn *Cancel, next, values, h, sum, cur []int64, op func(a, b int64) int64, identity int64, lo, hi, lanes int) {
	for s := lo; s < hi; s += cancelStride {
		chaos.Point(chaos.PointChunk)
		if cn.Canceled() {
			return
		}
		e := min(s+cancelStride, hi)
		kernel.SumOp(next, values, h, sum, cur, op, identity, s, e, lanes)
	}
}

func stripExpandOp(cn *Cancel, out, next, values, h, pfx []int64, op func(a, b int64) int64, lo, hi, lanes int) {
	for s := lo; s < hi; s += cancelStride {
		chaos.Point(chaos.PointChunk)
		if cn.Canceled() {
			return
		}
		e := min(s+cancelStride, hi)
		kernel.ExpandOp(out, next, values, h, pfx, op, s, e, lanes)
	}
}
