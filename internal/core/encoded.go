package core

import (
	"listrank/internal/chaos"
	"listrank/internal/kernel"
	"listrank/internal/list"
	"listrank/internal/par"
	"listrank/internal/serial"
)

// This file is the sublist engine. Its Phases 1 and 3 never chase the
// caller's list: they chase words the engine derives from it, in one
// of two layouts picked once per call (kernel/record.go has the bit
// layouts).
//
// The narrow layout is the paper's single-gather optimization (§3).
// "For list ranking, we are able to improve the performance of the
// loop further by reducing the number of gather operations to one,
// which is important because the Cray C90 can perform only one gather
// or scatter operation at a time. One gather is sufficient because we
// encode the link and value data for a vertex into a w-bit integer
// value, which we can do as long as the list length (and therefore the
// maximum rank) is no more than 2^(w/2)." We encode exactly that way:
// enc[v] = next[v]<<32 | uint32(addend), the addend 1 for a rank and
// the vertex's value for an addition scan. The same bound argument
// carries over to sums: a scan takes the narrow word when its list's
// Σ|value| is below 2^31, so every value and every local prefix fits
// in 32 bits. Every other problem — any other operator, a scan with
// Σ|value| of 2^31 or more, a list of 2^31 vertices or more, or
// DisableEncoding — takes the wide layout, a 16-byte {link, value}
// pair per vertex that a lane still fetches in one cache line.
//
// In both layouts every sublist tail is a self-loop that keeps its
// value, so a sublist's fold is complete when its chase stops. That is
// the paper's destructive-initialization device, except that the
// destruction happens in the derived words, so the engine never writes
// the caller's list and concurrent calls may share one.
//
// Phase 1 records and Phase 3 streams: as a lane reads a vertex's words
// it overwrites them with the vertex's sublist index and its offset
// (narrow rank) or local exclusive prefix (narrow scan and wide), so
// Phase 1 makes one random gather and no random store per vertex in
// every layout — a narrow scan costs what a rank costs — and Phase 3
// is one sequential pass over the words and out rather than a second
// chase. A sublist's successor is read from the record at the
// successor's head. The record's sentinel bit is also the
// malformed-list guard: a lane that reaches a recorded vertex panics
// with list.ErrNotList, and so does the stream at a vertex no lane
// reached.

// layout selects the derived words the engine chases.
type layout uint8

const (
	narrowRank layout = iota // §3 word, addend 1
	narrowScan               // §3 word, int32 addend
	wide                     // {link, value} pair under any operator
)

// encMaxLen bounds the lists the narrow word supports, and encMaxSum
// the Σ|value| of a narrow scan: below it every local exclusive prefix
// fits the record's 32-bit field (kernel/record.go), as every offset
// of a list shorter than encMaxLen does.
const (
	encMaxLen = 1 << 31
	encMaxSum = 1 << 31
)

// encoded runs the sublist engine on l, writing into out the exclusive
// scan of values under op from identity. values nil is a rank (every
// value 1), and otherwise values is l.Value; op nil is integer
// addition (identity 0). Lists at or below the serial cutoff take
// package serial's walk. Otherwise the layout is picked here, once:
// narrow for a rank or addition scan unless DisableEncoding is set,
// the list has 2^31 vertices or more, or the encode pass finds a link
// the narrow word cannot hold or, for a scan, Σ|value| of 2^31 or more
// (encMaxSum); wide for everything else. Phase 2's child engine
// inherits the rule: its values are sublist sums, whose Σ|·| is at
// most the parent's.
func encoded(out []int64, l *list.List, values []int64, op func(a, b int64) int64, identity int64, opt Options, depth int, sc *Scratch) {
	n := l.Len()
	opt = opt.withDefaults(n)
	if n <= opt.SerialCutoff || opt.M < 1 {
		switch {
		case values == nil:
			serial.RanksInto(out, l)
		case op == nil:
			serial.ScanInto(out, l)
		default:
			serial.ScanOpInto(out, l, op, identity)
		}
		return
	}
	lay := wide
	if op == nil && !opt.DisableEncoding && n < encMaxLen {
		lay = narrowScan
		if values == nil {
			lay = narrowRank
		}
	}
	np := par.Procs(opt.Procs, n)
	tail, lay := sc.encode(l.Next, values, lay, np)
	enc, next := sc.enc, l.Next
	kept, dropped := drawSplitters(out, n, tail, opt.M, opt.Seed, np, sc)
	k := len(kept)
	v := sc.vps(k)
	v.h[0] = l.Head
	if np == 1 {
		encCut(enc, next, lay, v, kept, 0, k-1)
	} else {
		sc.fc.next, sc.fc.lay = next, lay
		sc.fanout().ForChunksCtx(k-1, np, sc, taskEncCut)
	}
	if st := opt.Stats; st != nil {
		st.Encoded = lay != wide
		st.Sublists = k
		st.DuplicatesDropped = dropped
		st.Depth = depth
	}
	p := par.Procs(opt.Procs, k)
	lanes := kernel.Width(opt.LaneWidth, n)
	stride := stripLen(n, k)

	// Phase 1: chase every sublist once, recording each vertex's
	// sublist (and offset or local prefix) in the words it just read.
	opt.checkpoint(chaos.PointPhase1)
	if p == 1 {
		stripRecord(opt.Cancel, enc, v.h, v.sum, v.cur, lay, op, identity, 0, k, stride, lanes)
	} else {
		sc.fc.lay, sc.fc.stride, sc.fc.lanes = lay, stride, lanes
		sc.fc.op, sc.fc.identity = op, identity
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
		linkSuccessors(next, enc, lay, v, 0, k)
	} else {
		sc.fc.next, sc.fc.lay = next, lay
		sc.fanout().ForChunksCtx(k, p, sc, taskLinkSuccessors)
	}

	// Phase 2: prefix the sublist folds. They are complete: every tail
	// kept its value.
	opt.checkpoint(chaos.PointPhase2)
	phase2(v, k, op, identity, opt, depth, sc)

	// Phase 3: one streaming pass in vertex order finishes every
	// vertex from its record and its sublist's prefix.
	opt.checkpoint(chaos.PointPhase3)
	if np == 1 {
		stripStream(opt.Cancel, out, enc, v.pfx, lay, op, 0, n)
	} else {
		sc.fc.out, sc.fc.lay, sc.fc.op = out, lay, op
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
}

// encode fills sc.enc from next and values (nil for a rank) in layout
// lay on p workers, refilling in the wide layout when a narrow word
// cannot hold some link or value exactly or a scan's Σ|value| reaches
// encMaxSum. It returns the list's tail — its first self-loop, found
// in the same pass — and the layout it filled, and panics with
// list.ErrNotList if the list has no self-loop.
func (sc *Scratch) encode(next, values []int64, lay layout, p int) (int64, layout) {
	tail, ok := sc.fill(next, values, lay, p)
	if !ok {
		lay = wide
		tail, _ = sc.fill(next, values, lay, p)
	}
	if tail < 0 {
		panic(list.ErrNotList)
	}
	return tail, lay
}

// fill runs encFill over the whole list on p workers and combines the
// workers' tails and weights: the narrow layout holds when their total
// is below encMaxSum.
func (sc *Scratch) fill(next, values []int64, lay layout, p int) (int64, bool) {
	n := len(next)
	words := n
	if lay == wide {
		words = 2 * n
	}
	sc.enc = grow(sc.enc, words)
	sc.tails = grow(sc.tails, p)
	sc.encSum = grow(sc.encSum, p)
	if p == 1 {
		sc.tails[0], sc.encSum[0] = encFill(sc.enc, next, values, lay, 0, n)
	} else {
		sc.fc.next, sc.fc.values, sc.fc.lay = next, values, lay
		sc.fanout().ForChunksCtx(n, p, sc, taskEncode)
	}
	tail, sum := int64(-1), int64(0)
	for w := 0; w < p; w++ {
		sum += sc.encSum[w]
		if tail < 0 {
			tail = sc.tails[w]
		}
	}
	return tail, sum < encMaxSum
}

// encFill fills the words of vertices [lo, hi) in layout lay: narrow
// enc[i] = next[i]<<32 | addend, the addend 1 for a rank (values nil)
// and uint32(values[i]) for a scan; wide enc[2i], enc[2i+1] = next[i],
// the value (1 for a rank). It returns the chunk's first self-loop (-1
// if none) and its weight against the narrow layout's bound: encMaxSum
// when some link lies outside [0, 2^31) or some value outside int32,
// which the narrow word cannot hold; otherwise Σ|value| for a narrow
// scan, and 0 for a narrow rank and for wide. A narrow scan fill stops
// after the block in which its sum reaches encMaxSum, so a chunk's
// weight is below encMaxSum + encBlock·2^31 and the sum over workers
// cannot overflow.
func encFill(enc []uint64, next, values []int64, lay layout, lo, hi int) (int64, int64) {
	tail := int64(-1)
	var bad, sum int64
	switch lay {
	case narrowRank:
		for i := lo; i < hi; i++ {
			nx := next[i]
			if nx == int64(i) && tail < 0 {
				tail = nx
			}
			bad |= nx >> 31
			enc[i] = uint64(nx)<<32 | 1
		}
	case narrowScan:
		// A wide value or a total that reaches the bound declines the
		// layout, so stop at the first block that holds either rather
		// than fill words nobody will chase.
		for b := lo; b < hi && bad == 0 && sum < encMaxSum; b += encBlock {
			e := min(b+encBlock, hi)
			for i := b; i < e; i++ {
				nx, x := next[i], values[i]
				if nx == int64(i) && tail < 0 {
					tail = nx
				}
				bad |= nx>>31 | x ^ int64(int32(x))
				s := x >> 63 // 0 or -1, so (x ^ s) - s is |x|
				sum += (x ^ s) - s
				enc[i] = uint64(nx)<<32 | uint64(uint32(x))
			}
		}
	default:
		w := enc[2*lo : 2*hi]
		for i, nx := range next[lo:hi] {
			if nx == int64(lo+i) && tail < 0 {
				tail = nx
			}
			x := int64(1)
			if values != nil {
				x = values[lo+i]
			}
			w[2*i], w[2*i+1] = uint64(nx), uint64(x)
		}
	}
	if bad != 0 {
		return tail, encMaxSum
	}
	return tail, sum
}

// encBlock is the narrow scan fill's early-exit granule, in vertices.
const encBlock = 4096

// encCut cuts the words at splitters kept[lo+1 .. hi]: each becomes a
// self-loop that keeps its value, and the vertex after it heads
// sublist j. The list itself is never written.
func encCut(enc []uint64, next []int64, lay layout, v *vps, kept []int64, lo, hi int) {
	for j := lo + 1; j < hi+1; j++ {
		q := kept[j]
		v.h[j] = next[q]
		if lay == wide {
			enc[2*q] = uint64(q)
		} else {
			enc[q] = uint64(q)<<32 | uint64(uint32(enc[q]))
		}
	}
}

// linkSuccessors links sublists [lo, hi) into the reduced list: the
// successor of sublist j is the sublist recorded at the head that
// follows its tail in the list — every head is recorded once Phase 1
// has completed. A sublist whose tail is a self-loop of the list
// itself is the tail sublist, its own successor.
func linkSuccessors(next []int64, enc []uint64, lay layout, v *vps, lo, hi int) {
	for j := lo; j < hi; j++ {
		c := v.cur[j]
		switch nh := next[c]; {
		case nh == c:
			v.succ[j] = int64(j)
		case lay == wide:
			v.succ[j] = int64(enc[2*nh] ^ kernel.RecBit)
		default:
			v.succ[j] = int64((enc[nh] ^ kernel.RecBit) >> 32)
		}
	}
}

// phase2 scans the reduced list of k sublists — head vp 0, links
// v.succ, values v.sum — into v.pfx by running the engine on it in the
// child arena, with M re-derived for k and every other option
// inherited: the serial walk at or below the serial cutoff, the
// sublist algorithm one level down above it. Every Phase 2 thus ends
// in internal/serial's walk, which panics unless it reaches the tail
// sublist at exactly link k−1, so a reduced list that is not one chain
// — a malformed list whose off-path cycle holds splitters — panics
// rather than return. The child's Stats stay out of the caller's,
// which gets Phase2Len and, when the child ran the engine, its Depth.
func phase2(v *vps, k int, op func(a, b int64) int64, identity int64, opt Options, depth int, sc *Scratch) {
	c := sc.childScratch()
	c.in = list.List{Next: v.succ, Value: v.sum}
	c.stats = Stats{}
	sub := opt
	sub.M = 0
	sub.Seed = opt.Seed + 0x9e3779b97f4a7c15
	sub.Stats = &c.stats
	encoded(v.pfx, &c.in, v.sum, op, identity, sub, depth+1, c)
	if st := opt.Stats; st != nil {
		st.Phase2Len = k
		st.Depth = max(st.Depth, c.stats.Depth)
	}
}

// Pool bodies of the engine; see encoded for the phases.
func taskEncode(c any, w, lo, hi int) {
	sc := c.(*Scratch)
	sc.tails[w], sc.encSum[w] = encFill(sc.enc, sc.fc.next, sc.fc.values, sc.fc.lay, lo, hi)
}

func taskEncCut(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	encCut(sc.enc, sc.fc.next, sc.fc.lay, &sc.v, sc.kept, lo, hi)
}

func taskRecord(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	stripRecord(sc.fc.cancel, sc.enc, sc.v.h, sc.v.sum, sc.v.cur, sc.fc.lay, sc.fc.op, sc.fc.identity, lo, hi, sc.fc.stride, sc.fc.lanes)
}

func taskLinkSuccessors(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	linkSuccessors(sc.fc.next, sc.enc, sc.fc.lay, &sc.v, lo, hi)
}

func taskStream(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	stripStream(sc.fc.cancel, sc.fc.out, sc.enc, sc.v.pfx, sc.fc.lay, sc.fc.op, lo, hi)
}
