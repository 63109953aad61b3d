package core

import (
	"listrank/internal/chaos"
	"listrank/internal/kernel"
	"listrank/internal/list"
	"listrank/internal/par"
)

// This file is the encoded engine: the paper's single-gather
// optimization (§3). "For list ranking, we are able to improve the
// performance of the loop further by reducing the number of gather
// operations to one, which is important because the Cray C90 can
// perform only one gather or scatter operation at a time. One gather
// is sufficient because we encode the link and value data for a vertex
// into a w-bit integer value, which we can do as long as the list
// length (and therefore the maximum rank) is no more than 2^(w/2)."
//
// We encode exactly that way: enc[v] = next[v]<<32 | uint32(addend),
// where the addend is 1 for a rank and the vertex's value for a scan
// whose values all fit in int32. Every sublist tail is a self-loop
// that keeps its addend, so a sublist's sum is just the sum of its
// words' addends. That is the paper's destructive-initialization
// device, except that the destruction happens in the derived encoded
// array, so this engine never mutates the caller's list.
//
// Phase 1 records and Phase 3 streams (kernel/record.go): as a lane
// reads a word it overwrites it with the vertex's sublist index and
// offset (a scan stores its local prefix in out instead), so Phase 3
// is one sequential pass over enc and out — out[v] = pfx[j] + offset,
// or out[v] += pfx[j] — rather than a second chase. A sublist's
// successor is read from the record at the successor's head. On the
// goroutine track that is one random gather per vertex for a rank,
// plus one random store for a scan, where the generic engine pays two
// gathers per vertex in each phase and a random store in Phase 3.
//
// The encoding needs every link below 2^31 (the record sentinel takes
// the top bit) and, for a scan, every value in int32. A problem that
// does not qualify — n >= 2^31, a wide value, DisableEncoding — runs on
// the generic engine instead (core.go, op.go).

// encMaxLen bounds the lists the encoded representation supports.
const encMaxLen = 1 << 31

// encoded runs the record-then-stream engine on l, writing ranks
// (values == nil) or the exclusive addition scan of values into out.
// It reports false, having changed neither out nor Stats, when the
// problem does not qualify: DisableEncoding, a list at or below the
// serial cutoff or of 2^31 vertices or more, or a word that cannot be
// encoded exactly — a value outside int32 or a link outside
// [0, 2^31). The caller then runs the generic engine, whose per-link
// guard rejects a bad link, handing it tail: the list's tail when the
// encode pass found it before declining, so the generic setup does
// not search again, and -1 otherwise.
func encoded(out []int64, l *list.List, values []int64, opt Options, depth int, sc *Scratch) (tail int64, ok bool) {
	n := l.Len()
	opt = opt.withDefaults(n)
	if opt.DisableEncoding || n <= opt.SerialCutoff || n >= encMaxLen || opt.M < 1 {
		return -1, false
	}
	np := par.Procs(opt.Procs, n)
	if tail, ok = sc.encode(l.Next, values, np); !ok {
		return tail, false
	}
	enc, next := sc.enc, l.Next
	kept, dropped := drawSplitters(out, n, tail, opt.M, opt.Seed, np, sc)
	k := len(kept)
	v := sc.vps(k)
	v.h[0] = l.Head
	if np == 1 {
		encCut(enc, next, v, kept, 0, k-1)
	} else {
		sc.fc.next = next
		sc.fanout().ForChunksCtx(k-1, np, sc, taskEncCut)
	}
	if st := opt.Stats; st != nil {
		st.Depth = depth
		st.Encoded = true
		st.Sublists = k
		st.DuplicatesDropped = dropped
	}
	p := par.Procs(opt.Procs, k)
	lanes := kernel.Width(opt.LaneWidth, n)
	isScan := values != nil

	// Phase 1: chase every sublist once with the single-gather loop,
	// recording each vertex's sublist (and offset or local prefix) in
	// the word it just read.
	opt.checkpoint(chaos.PointPhase1)
	if p == 1 {
		stripRecord(opt.Cancel, out, enc, v.h, v.sum, v.cur, isScan, 0, k, lanes)
	} else {
		sc.fc.out, sc.fc.scan, sc.fc.lanes = out, isScan, lanes
		sc.fc.cancel = opt.Cancel
		sc.fanout().ForChunksCtx(k, p, sc, taskRecord)
	}
	if opt.Stats != nil {
		opt.Stats.LinksTraversed += int64(n)
	}

	// A Phase 1 abandoned mid-chase leaves v.cur only partially
	// written: entries for sublists no worker reached are stale
	// scratch from a previous (possibly larger) problem on this
	// engine, so the successor step must not index with them. Abandon
	// here rather than at the Phase 2 checkpoint.
	if opt.Cancel.Canceled() {
		panic(ErrCanceled)
	}
	if p == 1 {
		linkSuccessors(next, enc, v, 0, k)
	} else {
		sc.fc.next = next
		sc.fanout().ForChunksCtx(k, p, sc, taskLinkSuccessors)
	}

	// Phase 2: prefix the sublist sums with the addition solver. The
	// sums are complete: every tail kept its addend.
	opt.checkpoint(chaos.PointPhase2)
	phase2(v, k, nil, 0, opt, depth, sc)

	// Phase 3: one streaming pass in vertex order finishes every
	// vertex from its record and its sublist's prefix.
	opt.checkpoint(chaos.PointPhase3)
	if np == 1 {
		stripStream(opt.Cancel, out, enc, v.pfx, isScan, 0, n)
	} else {
		sc.fc.out, sc.fc.scan = out, isScan
		sc.fc.cancel = opt.Cancel
		sc.fanout().ForChunksCtx(n, np, sc, taskStream)
	}
	if opt.Stats != nil {
		opt.Stats.LinksTraversed += int64(n)
	}
	// Surface a cancellation observed mid-Phase 3 (out is partial).
	if opt.Cancel.Canceled() {
		panic(ErrCanceled)
	}
	return tail, true
}

// encode fills sc.enc[:n] from next and values (nil for a rank) on p
// workers. It returns the list's tail — its first self-loop, found in
// the same pass, or -1 — and whether every word encoded exactly; it
// panics if every word encoded but the list has no self-loop.
func (sc *Scratch) encode(next, values []int64, p int) (int64, bool) {
	sc.enc = grow(sc.enc, len(next))
	sc.tails = grow(sc.tails, p)
	sc.encOK = grow(sc.encOK, p)
	if p == 1 {
		sc.tails[0], sc.encOK[0] = encFill(sc.enc, next, values, 0, len(next))
	} else {
		sc.fc.next, sc.fc.values = next, values
		sc.fanout().ForChunksCtx(len(next), p, sc, taskEncode)
	}
	tail, ok := int64(-1), true
	for w := 0; w < p; w++ {
		ok = ok && sc.encOK[w]
		if tail < 0 {
			tail = sc.tails[w]
		}
	}
	if ok && tail < 0 {
		panic("core: list has no tail self-loop")
	}
	return tail, ok
}

// encFill encodes vertices [lo, hi): enc[i] = next[i]<<32 | addend,
// the addend 1 for a rank (values nil) and uint32(values[i]) for a
// scan. It returns the chunk's first self-loop (-1 if none) and
// whether every link lies in [0, 2^31) and every value in int32.
func encFill(enc []uint64, next, values []int64, lo, hi int) (int64, bool) {
	tail := int64(-1)
	var bad int64
	if values == nil {
		for i := lo; i < hi; i++ {
			nx := next[i]
			if nx == int64(i) && tail < 0 {
				tail = nx
			}
			bad |= nx >> 31
			enc[i] = uint64(nx)<<32 | 1
		}
		return tail, bad == 0
	}
	for i := lo; i < hi; i++ {
		nx, x := next[i], values[i]
		if nx == int64(i) && tail < 0 {
			tail = nx
		}
		bad |= nx>>31 | x ^ int64(int32(x))
		enc[i] = uint64(nx)<<32 | uint64(uint32(x))
	}
	return tail, bad == 0
}

// encCut cuts the encoded array at splitters kept[lo+1 .. hi]: each
// becomes a self-loop that keeps its addend, and the vertex after it
// heads sublist j. The list itself is never written.
func encCut(enc []uint64, next []int64, v *vps, kept []int64, lo, hi int) {
	for j := lo + 1; j < hi+1; j++ {
		q := kept[j]
		v.h[j] = next[q]
		enc[q] = uint64(q)<<32 | uint64(uint32(enc[q]))
	}
}

// linkSuccessors links sublists [lo, hi) into the reduced list: the
// successor of sublist j is the sublist recorded at the head that
// follows its tail in the list — every head is recorded once Phase 1
// has completed. A sublist whose tail is a self-loop of the list
// itself is the tail sublist, its own successor.
func linkSuccessors(next []int64, enc []uint64, v *vps, lo, hi int) {
	for j := lo; j < hi; j++ {
		c := v.cur[j]
		if nh := next[c]; nh != c {
			v.succ[j] = int32((enc[nh] ^ kernel.RecBit) >> 32)
		} else {
			v.succ[j] = int32(j)
		}
	}
}

// Pool bodies of the encoded engine; see encoded for the phases.
func taskEncode(c any, w, lo, hi int) {
	sc := c.(*Scratch)
	sc.tails[w], sc.encOK[w] = encFill(sc.enc, sc.fc.next, sc.fc.values, lo, hi)
}

func taskEncCut(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	encCut(sc.enc, sc.fc.next, &sc.v, sc.kept, lo, hi)
}

func taskRecord(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	stripRecord(sc.fc.cancel, sc.fc.out, sc.enc, sc.v.h, sc.v.sum, sc.v.cur, sc.fc.scan, lo, hi, sc.fc.lanes)
}

func taskLinkSuccessors(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	linkSuccessors(sc.fc.next, sc.enc, &sc.v, lo, hi)
}

func taskStream(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	stripStream(sc.fc.cancel, sc.fc.out, sc.enc, sc.v.pfx, sc.fc.scan, lo, hi)
}
