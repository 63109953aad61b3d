package core

import (
	"listrank/internal/chaos"
	"listrank/internal/kernel"
	"listrank/internal/list"
	"listrank/internal/par"
)

// This file is the rank-specialized engine: the paper's single-gather
// optimization (§3). "For list ranking, we are able to improve the
// performance of the loop further by reducing the number of gather
// operations to one, which is important because the Cray C90 can
// perform only one gather or scatter operation at a time. One gather
// is sufficient because we encode the link and value data for a vertex
// into a w-bit integer value, which we can do as long as the list
// length (and therefore the maximum rank) is no more than 2^(w/2)."
//
// We encode exactly that way: enc[v] = next[v]<<32 | addend, where the
// addend is 1 everywhere except at sublist tails, whose self-loop +
// zero addend mark where each sublist ends. That is the paper's
// destructive-initialization device, except that here the destruction
// happens in the derived encoded array, so the rank engine never
// mutates the caller's list at all. On the goroutine track the win is
// one memory stream per link instead of two;
// BenchmarkAblation_EncodedRank measures it.
//
// The encoding requires links to fit in 32 bits; for n >= 2^31 the
// engine falls back to the generic scan over a ones array (the paper's
// constraint n <= 2^(w/2) in the same spirit).

// encMaxLen is the largest list the encoded representation supports.
const encMaxLen = 1 << 31

// ranksEnc runs the full rank algorithm on the encoded representation,
// writing ranks into out. Callers guarantee n > opt.SerialCutoff and
// n < encMaxLen.
func ranksEnc(out []int64, l *list.List, opt Options, depth int, sc *Scratch) {
	n := l.Len()
	if st := opt.Stats; st != nil {
		st.Depth = depth
		st.Encoded = true
	}
	v, enc := setupRank(out, l, opt, sc)
	k := len(v.r)
	p := par.Procs(opt.Procs, k)
	lanes := kernel.Width(opt.LaneWidth, n)

	// Phase 1: sublist lengths via the single-gather loop. The addend
	// stream is folded from the same word as the link, so each
	// lane-step touches one cache line of enc and nothing else — with
	// lanes of those loads in flight per worker (kernel.SumEnc).
	opt.checkpoint(chaos.PointPhase1)
	if p == 1 {
		stripSumEnc(opt.Cancel, enc, v.h, v.sum, v.cur, 0, k, lanes)
	} else {
		sc.fc.lanes = lanes
		sc.fc.cancel = opt.Cancel
		sc.fanout().ForChunksCtx(k, p, sc, taskRankSum)
	}
	if opt.Stats != nil {
		opt.Stats.LinksTraversed += int64(n)
	}

	// A Phase 1 abandoned mid-chase leaves v.cur only partially
	// written: entries for sublists no worker reached are stale
	// scratch from a previous (possibly larger) problem on this
	// engine, so findSuccessors must not index out with them. Abandon
	// here rather than at the Phase 2 checkpoint.
	if opt.Cancel.Canceled() {
		panic(ErrCanceled)
	}
	findSuccessors(out, v, p, sc)

	// No tail-value fold: unlike the generic engine, the sublist
	// length already counts its tail vertex.

	// Phase 2: prefix the sublist lengths with the addition solver.
	opt.checkpoint(chaos.PointPhase2)
	phase2(v, k, nil, 0, opt, depth, sc)

	// Phase 3: assign consecutive ranks along each sublist.
	opt.checkpoint(chaos.PointPhase3)
	if p == 1 {
		stripExpandEnc(opt.Cancel, out, enc, v.h, v.pfx, 0, k, lanes)
	} else {
		sc.fc.out, sc.fc.lanes = out, lanes
		sc.fc.cancel = opt.Cancel
		sc.fanout().ForChunksCtx(k, p, sc, taskRankExpand)
	}
	if opt.Stats != nil {
		opt.Stats.LinksTraversed += int64(n)
	}
	// Surface a cancellation observed mid-Phase 3 (out is partial).
	if opt.Cancel.Canceled() {
		panic(ErrCanceled)
	}
}

// taskRankSum and taskRankExpand are the pool bodies: each worker runs
// the lane-interleaved single-gather kernels over its chunk of
// sublists.
func taskRankSum(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	stripSumEnc(sc.fc.cancel, sc.enc, sc.v.h, sc.v.sum, sc.v.cur, lo, hi, sc.fc.lanes)
}

func taskRankExpand(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	stripExpandEnc(sc.fc.cancel, sc.fc.out, sc.enc, sc.v.h, sc.v.pfx, lo, hi, sc.fc.lanes)
}

// setupRank draws the splitters with the same parallel machinery as
// the generic setup (shared via drawSplitters) and builds the
// virtual-processor table and the encoded word array, all from the
// Scratch arena. The input list is read, never written: the cuts exist
// only in enc (self-loop + zero addend at every sublist tail).
func setupRank(out []int64, l *list.List, opt Options, sc *Scratch) (*vps, []uint64) {
	n := l.Len()
	p := par.Procs(opt.Procs, n)
	tail := findTail(l, p, sc)
	kept, dropped := drawSplitters(out, n, tail, opt.M, opt.Seed, p, sc)

	k := len(kept)
	v := sc.vps(k)
	v.h[0] = l.Head
	v.r[0] = -1
	v.saved[0] = 0

	sc.enc = grow(sc.enc, n)
	enc := sc.enc
	next := l.Next
	if p == 1 {
		encFill(enc, next, 0, n)
	} else {
		sc.fc.next = next
		sc.fanout().ForChunksCtx(n, p, sc, taskEncFill)
	}
	enc[tail] = uint64(tail) << 32
	if p == 1 {
		rankCutChunk(enc, next, v, kept, 0, k-1)
	} else {
		sc.fc.next = next
		sc.fanout().ForChunksCtx(k-1, p, sc, taskRankCut)
	}

	if st := opt.Stats; st != nil {
		st.Sublists = k
		st.DuplicatesDropped = dropped
	}
	return v, enc
}

func taskEncFill(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	encFill(sc.enc, sc.fc.next, lo, hi)
}

func taskRankCut(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	rankCutChunk(sc.enc, sc.fc.next, &sc.v, sc.kept, lo, hi)
}

func encFill(enc []uint64, next []int64, lo, hi int) {
	for i := lo; i < hi; i++ {
		enc[i] = uint64(next[i])<<32 | 1
	}
}

// rankCutChunk records splitters kept[lo+1 .. hi] in the vp table and
// cuts the encoded array only (the list itself is never written).
func rankCutChunk(enc []uint64, next []int64, v *vps, kept []int64, lo, hi int) {
	for j := lo + 1; j < hi+1; j++ {
		q := kept[j]
		v.r[j] = q
		v.h[j] = next[q]
		enc[q] = uint64(q) << 32
	}
}
