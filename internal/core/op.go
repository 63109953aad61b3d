package core

import (
	"listrank/internal/chaos"
	"listrank/internal/kernel"
	"listrank/internal/list"
	"listrank/internal/par"
)

// This file is the generic-operator twin of the addition-specialized
// engine in core.go: the same three phases, parameterized by an
// arbitrary associative operator and its identity. List ranking and
// integer list scan go through the specialized engine (as the paper
// specializes its list-rank loop down to a single gather, §3); the
// generic engine supports any monoid — min/max, modular products,
// function composition — at the cost of an indirect call per link.

func scanOp(out []int64, l *list.List, values []int64, op func(a, b int64) int64, identity int64, opt Options, depth int, sc *Scratch) {
	n := l.Len()
	opt = opt.withDefaults(n)
	if st := opt.Stats; st != nil {
		st.Depth = depth
	}
	if n <= opt.SerialCutoff || opt.M < 1 {
		serialScanOpInto(out, l, values, op, identity)
		return
	}
	v, tail, savedTail := setup(out, l, values, identity, -1, opt, sc)
	defer restore(l, values, v, tail, savedTail)
	k := len(v.r)
	p := par.Procs(opt.Procs, k)
	lanes := kernel.Width(opt.LaneWidth, n)

	// Phase 1: sublist "sums" under op, lane-interleaved. The
	// per-sublist fold order is the serial walk's at every lane width,
	// so non-commutative operators stay correct.
	opt.checkpoint(chaos.PointPhase1)
	if p == 1 {
		stripSumOp(opt.Cancel, l.Next, values, v.h, v.sum, v.cur, op, identity, 0, k, lanes)
	} else {
		sc.fc.next, sc.fc.values = l.Next, values
		sc.fc.op, sc.fc.identity, sc.fc.lanes = op, identity, lanes
		sc.fc.cancel = opt.Cancel
		sc.fanout().ForChunksCtx(k, p, sc, taskSumOp)
	}
	if opt.Stats != nil {
		opt.Stats.LinksTraversed += int64(n)
	}

	// A canceled Phase 1 leaves v.cur partially stale (see the same
	// guard in encoded); abandon before any stage consumes it.
	if opt.Cancel.Canceled() {
		panic(ErrCanceled)
	}
	findSuccessors(out, v, p, sc)

	if p == 1 {
		foldTailsOp(v, op, 0, k)
	} else {
		sc.fc.op = op
		sc.fanout().ForChunksCtx(k, p, sc, taskFoldTailsOp)
	}

	// Phase 2: the shared switchover, folding under op.
	opt.checkpoint(chaos.PointPhase2)
	phase2(v, k, op, identity, opt, depth, sc)

	// Phase 3.
	opt.checkpoint(chaos.PointPhase3)
	if p == 1 {
		stripExpandOp(opt.Cancel, out, l.Next, values, v.h, v.pfx, op, 0, k, lanes)
	} else {
		sc.fc.out, sc.fc.next, sc.fc.values = out, l.Next, values
		sc.fc.op, sc.fc.lanes = op, lanes
		sc.fc.cancel = opt.Cancel
		sc.fanout().ForChunksCtx(k, p, sc, taskExpandOp)
	}
	if opt.Stats != nil {
		opt.Stats.LinksTraversed += int64(n)
	}
	// Surface a cancellation observed mid-Phase 3 (out is partial).
	if opt.Cancel.Canceled() {
		panic(ErrCanceled)
	}
}

func taskSumOp(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	stripSumOp(sc.fc.cancel, sc.fc.next, sc.fc.values, sc.v.h, sc.v.sum, sc.v.cur, sc.fc.op, sc.fc.identity, lo, hi, sc.fc.lanes)
}

func taskFoldTailsOp(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	foldTailsOp(&sc.v, sc.fc.op, lo, hi)
}

func taskExpandOp(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	stripExpandOp(sc.fc.cancel, sc.fc.out, sc.fc.next, sc.fc.values, sc.v.h, sc.v.pfx, sc.fc.op, lo, hi, sc.fc.lanes)
}

func foldTailsOp(v *vps, op func(a, b int64) int64, lo, hi int) {
	for j := lo; j < hi; j++ {
		s := v.succ[j]
		if int(s) != j {
			v.sum[j] = op(v.sum[j], v.saved[s])
		}
	}
}

func serialScanOpInto(out []int64, l *list.List, values []int64, op func(a, b int64) int64, identity int64) {
	v := l.Head
	next := l.Next
	acc := identity
	for {
		out[v] = acc
		acc = op(acc, values[v])
		nx := next[v]
		if nx == v {
			return
		}
		v = nx
	}
}
