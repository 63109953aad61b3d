// Package core implements the paper's list-ranking / list-scan
// algorithm (§2.5, §3): randomized sublist contraction with small
// constants.
//
// The algorithm breaks symmetry by randomly dividing the linked list of
// length n into at most m+1 sublists that are processed independently
// and in parallel:
//
//	Phase 1: traverse each sublist, accumulating the "sum" of its
//	         values, and link the sublist sums into a reduced list of
//	         at most m+1 nodes in original list order.
//	Phase 2: list-scan the reduced list (serially when it is short,
//	         with Wyllie's pointer jumping at moderate sizes, or
//	         recursively with this same algorithm when it is large).
//	         The scan values become the scan values of the sublist
//	         heads.
//	Phase 3: give every vertex its sublist head's scan value
//	         combined with the values before it in its sublist.
//
// The implementation mirrors the paper's engineering devices:
//
//   - Splitters are chosen at random vertices; a chosen vertex becomes
//     the *tail* of the preceding sublist and its successor becomes the
//     head of a new sublist (Fig. 4). Duplicate choices are eliminated
//     by the paper's write/read competition: every virtual processor
//     writes its index at its chosen position and the ones that read a
//     different index back drop out.
//   - Each sublist tail is terminated with a self-loop and its value is
//     destructively set to the operator identity (§3, Phase 1), so the
//     traversal folds the tail like any other vertex and stops where a
//     link points back at itself.
//   - Successor sublists are discovered by writing the virtual
//     processor index at the chosen position and reading the index
//     stored at the tail the traversal reached (Fig. 6). The processor
//     that finds no index owns the tail sublist.
//   - On multiple processors, the virtual processors (sublists) are
//     assigned to workers once, each worker completes Phases 1 and 3
//     on its share independently, and only a constant number of
//     synchronizations occur (§5).
//
// Phase 1 walks every sublist to completion with the lane-interleaved
// chase of internal/kernel: each worker advances Options.LaneWidth
// independent sublist cursors round-robin and refills a lane the
// moment its sublist ends, so many cache misses are in flight per
// worker and no step is spent idling on a finished sublist. That is
// the goroutine-track analogue of the latency hiding the paper gets
// from vector gathers over virtual processors (§1.1). The paper's
// lockstep traversal with §4 packing, which a vector machine forces,
// lives in package vecalg on the simulated C-90.
//
// Phase 3 takes one of two shapes. Ranks and addition scans whose
// values fit in int32 run the encoded engine (encoded.go), which
// records each vertex's sublist and offset in Phase 1 — in the very
// word the single-gather loop (§3) just read — and finishes with one
// streaming pass in vertex order. Every other problem runs the generic
// engine, which traverses each sublist again, expanding the head's
// scan value across it.
//
// All working space — the virtual-processor table, splitter buffers,
// encoded words and Phase 2 storage — lives in a reusable Scratch
// arena (scratch.go). The package-level entry points draw arenas from
// a pool; callers with a steady stream of problems hold one Scratch
// (via listrank.Engine) and perform zero heap allocations per call
// once the arena is warm.
package core

import (
	"math/bits"
	"sync/atomic"

	"listrank/internal/chaos"
	"listrank/internal/kernel"
	"listrank/internal/list"
	"listrank/internal/par"
	"listrank/internal/rng"
)

// Phase2Algorithm selects how the reduced list of sublist sums is
// scanned in Phase 2.
type Phase2Algorithm int

const (
	// Phase2Auto picks serial, Wyllie or recursive by reduced-list
	// length, mirroring the paper's empirically determined switchover.
	Phase2Auto Phase2Algorithm = iota
	// Phase2Serial always scans the reduced list serially.
	Phase2Serial
	// Phase2Wyllie always uses pointer jumping.
	Phase2Wyllie
	// Phase2Recursive always recurses with this algorithm (bottoming
	// out serially below the small-list threshold).
	Phase2Recursive
)

// Stats reports what a run did; pass a pointer in Options to collect.
type Stats struct {
	// Sublists is the number of sublists after duplicate elimination
	// (at most M+1).
	Sublists int
	// DuplicatesDropped counts splitter choices lost to the
	// write/read competition.
	DuplicatesDropped int
	// Phase2Len is the reduced-list length handed to Phase 2.
	Phase2Len int
	// Phase2Used is the algorithm Phase 2 actually ran.
	Phase2Used Phase2Algorithm
	// Depth is the recursion depth (0 when Phase 2 did not recurse).
	Depth int
	// LinksTraversed counts the vertex visits of Phases 1 and 3: each
	// phase visits every vertex once, so a run that leaves the serial
	// cutoff reports exactly 2n at every lane width. A recursive
	// Phase 2's own visits are not included.
	LinksTraversed int64
	// Encoded reports whether the run used the single-gather
	// encoded-word engine (§3, encoded.go): ranks, and addition scans
	// whose values all fit in int32, of lists longer than the serial
	// cutoff and shorter than 2^31 vertices, unless DisableEncoding is
	// set.
	Encoded bool
}

// Options configures the algorithm. The zero value selects automatic
// parameters: m ≈ n/log2(n) splitters, one worker, auto Phase 2.
type Options struct {
	// Seed seeds splitter selection. Runs with equal seeds and equal
	// options are deterministic, and the splitter draw itself depends
	// only on Seed and M — never on Procs.
	Seed uint64
	// M is the number of splitters (the list is cut into at most M+1
	// sublists). M <= 0 selects DefaultM(n).
	M int
	// Procs is the number of workers for setup and Phases 1 and 3.
	// Values < 1 mean 1. Multi-worker phases dispatch onto the arena's
	// resident worker pool (par.Pool, layer 0 of the arena
	// architecture) rather than spawning goroutines per call.
	Procs int
	// Phase2 selects the reduced-list scan algorithm.
	Phase2 Phase2Algorithm
	// SerialCutoff is the list length at or below which the whole
	// problem is solved serially (the paper's Fig. 1 crossover region:
	// parallel overhead dominates below about a thousand vertices).
	// <= 0 selects 1024.
	SerialCutoff int
	// LaneWidth is the number of independent sublist cursors each
	// worker interleaves in the Phase 1/3 chase loops (the software
	// analog of the paper's vector lanes; see internal/kernel). 0
	// selects the tuned per-regime default (kernel.DefaultWidth);
	// values are clamped to [1, kernel.MaxLanes]. 1 is the serial
	// single-cursor walk, one dependent load in flight: the
	// correctness oracle the wider lanes are tested against. Results
	// are identical for every width; only the number of memory loads
	// in flight differs.
	LaneWidth int
	// DisableEncoding turns off the single-gather encoded-word engine
	// (§3, see encoded.go), forcing ranks through the generic scan over
	// a ones array and addition scans through the generic two-stream
	// engine. It exists for the BenchmarkAblation_EncodedRank
	// comparison and to test the generic engine directly.
	DisableEncoding bool
	// Cancel, if non-nil, makes the run cooperatively cancelable: it is
	// polled at phase boundaries and between kernel chunk strips (see
	// cancel.go for the cost bound), and a run that observes
	// cancellation panics with ErrCanceled at its next phase boundary —
	// after the deferred restore has un-mutated the caller's list. Nil
	// (the default) compiles the checks down to nil-receiver
	// short-circuits.
	Cancel *Cancel
	// Stats, if non-nil, is filled with run statistics.
	Stats *Stats
}

// DefaultM returns the default splitter count for a list of n
// vertices: n/⌈log2 n⌉, the paper's m ≈ n/log n guidance, which makes
// the expected sublist length about log n and keeps the Phase 2
// problem a log-factor smaller than the input.
func DefaultM(n int) int {
	if n < 4 {
		return 0
	}
	return n / bits.Len(uint(n-1))
}

const defaultSerialCutoff = 1024

func (o Options) withDefaults(n int) Options {
	if o.SerialCutoff <= 0 {
		o.SerialCutoff = defaultSerialCutoff
	}
	if o.M <= 0 {
		o.M = DefaultM(n)
	}
	if o.M > n/2 {
		o.M = n / 2
	}
	if o.Procs < 1 {
		o.Procs = 1
	}
	return o
}

// Ranks returns, for each vertex of l, the number of vertices that
// precede it in the list. Unless disabled (or the list is enormous),
// it runs the single-gather encoded engine (§3), which reads one
// memory stream per link, streams Phase 3, and never mutates l.
// Working space comes from a pooled Scratch.
func Ranks(l *list.List, opt Options) []int64 {
	out := make([]int64, l.Len())
	sc := getScratch()
	RanksInto(out, l, opt, sc)
	putScratch(sc)
	return out
}

// RanksInto is Ranks into caller-provided storage of length l.Len(),
// drawing all working space from sc (nil borrows a pooled arena). With
// a warm sc, steady-state calls perform zero heap allocations at any
// Procs: single-worker phases run inline, and multi-worker phases
// dispatch onto resident pool workers (sc's own pool, or the
// process-wide par.Shared() pool) through closure-free task bodies.
func RanksInto(dst []int64, l *list.List, opt Options, sc *Scratch) {
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	defer sc.releaseCall()
	tail, ok := encoded(dst, l, nil, opt, 0, sc)
	if ok {
		return
	}
	ones := sc.onesFor(l.Len())
	scanAdd(dst, l, ones, tail, opt, 0, sc)
}

// Scan returns the exclusive list scan of l under integer addition.
// When every value fits in int32 it runs the encoded engine, like
// Ranks, and never mutates l; otherwise the generic engine cuts l in
// place and restores it before returning.
func Scan(l *list.List, opt Options) []int64 {
	out := make([]int64, l.Len())
	sc := getScratch()
	ScanInto(out, l, opt, sc)
	putScratch(sc)
	return out
}

// ScanInto is Scan into caller-provided storage of length l.Len(),
// drawing all working space from sc (nil borrows a pooled arena).
func ScanInto(dst []int64, l *list.List, opt Options, sc *Scratch) {
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	defer sc.releaseCall()
	addScan(dst, l, l.Value, opt, 0, sc)
}

// ScanOp returns the exclusive list scan of l under an arbitrary
// associative operator with the given identity, combining strictly
// preceding values in list order (safe for non-commutative operators).
func ScanOp(l *list.List, op func(a, b int64) int64, identity int64, opt Options) []int64 {
	out := make([]int64, l.Len())
	sc := getScratch()
	ScanOpInto(out, l, op, identity, opt, sc)
	putScratch(sc)
	return out
}

// ScanOpInto is ScanOp into caller-provided storage of length l.Len(),
// drawing all working space from sc (nil borrows a pooled arena).
func ScanOpInto(dst []int64, l *list.List, op func(a, b int64) int64, identity int64, opt Options, sc *Scratch) {
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	defer sc.releaseCall()
	scanOp(dst, l, l.Value, op, identity, opt, 0, sc)
}

// vp holds the per-virtual-processor (per-sublist) state. The paper
// stores five words per virtual processor (Table II: 5p+c space); we
// keep the same asymptotics with parallel arrays, backed by the
// Scratch arena so they are allocated once and reused.
type vps struct {
	r     []int64 // splitter vertex: tail of the *previous* sublist (-1 for vp 0)
	h     []int64 // sublist head
	saved []int64 // original value at the splitter (identity-overwritten)
	sum   []int64 // Phase 1 accumulation / Phase 2 reduced value
	cur   []int64 // traversal cursor / tail reached
	succ  []int32 // successor sublist index (self for the tail sublist)
	pfx   []int64 // Phase 2 result: scan value for the sublist head
}

// findTail locates the list's tail (the unique self-loop) by scanning
// the Next array in parallel chunks. This replaces the O(n) serial
// pointer chase of list.Tail with a memory-sequential search that both
// vectorizes and parallelizes — part of removing the serial prologue
// from the otherwise-parallel algorithm.
func findTail(l *list.List, p int, sc *Scratch) int64 {
	next := l.Next
	n := len(next)
	p = par.Procs(p, n)
	if p == 1 {
		for i, nx := range next {
			if nx == int64(i) {
				return int64(i)
			}
		}
		panic("core: list has no tail self-loop")
	}
	sc.tails = grow(sc.tails, p)
	found := sc.tails
	sc.fc.next = next
	sc.fanout().ForChunksCtx(n, p, sc, taskFindTail)
	for _, t := range found {
		if t >= 0 {
			return t
		}
	}
	panic("core: list has no tail self-loop")
}

// taskFindTail scans chunk [lo, hi) of the Next array for the
// self-loop, parking the find (or -1) in the worker's tails slot.
func taskFindTail(c any, w, lo, hi int) {
	sc := c.(*Scratch)
	next := sc.fc.next
	sc.tails[w] = -1
	for i := lo; i < hi; i++ {
		if next[i] == int64(i) {
			sc.tails[w] = int64(i)
			return
		}
	}
}

// splitterChunk is the fixed granule of the parallel splitter draw:
// chunk c owns draw positions [c·splitterChunk, (c+1)·splitterChunk)
// and fills them from its own seed-derived stream. Because the grid is
// fixed, the drawn sequence depends only on the seed and M — never on
// the worker count — so runs are reproducible across Procs settings.
const splitterChunk = 4096

// drawSplitters draws m splitter positions (avoiding the tail), runs
// the paper's write/read duplicate-elimination competition in out, and
// returns the kept table (kept[0] is the -1 sentinel for the head
// sublist; kept[j] for j >= 1 is the j-th surviving splitter, in draw
// order) plus the number of duplicates dropped. On return every
// competition cell of out is zeroed again, including out[tail], which
// the later successor competition relies on.
// drawPosChunks fills draw-grid chunks [clo, chi) of pos from their
// seed-derived streams. It is a named function (not a closure) so the
// single-worker path calls it with no per-call allocation; closure
// literals are only evaluated on the multi-worker branch.
func drawPosChunks(pos []int64, n int, tail int64, seed uint64, clo, chi, m int) {
	for c := clo; c < chi; c++ {
		// Independent per-chunk streams: golden-ratio-spaced splitmix
		// states, the construction splitmix64 is designed for.
		var r rng.Rand
		r.Seed(seed + uint64(c)*0x9e3779b97f4a7c15)
		lo := c * splitterChunk
		hi := min(lo+splitterChunk, m)
		for i := lo; i < hi; i++ {
			for {
				q := int64(r.Intn(n))
				if q != tail {
					pos[i] = q
					break
				}
			}
		}
	}
}

// compactWinners appends the surviving splitters of draw range
// [lo, hi) to winners[lo:], in draw order, and returns their count.
func compactWinners(out, pos, winners []int64, lo, hi int) int {
	cnt := 0
	for j := lo; j < hi; j++ {
		if out[pos[j]] == int64(j+1) {
			winners[lo+cnt] = pos[j]
			cnt++
		}
	}
	return cnt
}

func drawSplitters(out []int64, n int, tail int64, m int, seed uint64, p int, sc *Scratch) ([]int64, int) {
	sc.pos = grow(sc.pos, m)
	pos := sc.pos
	chunks := (m + splitterChunk - 1) / splitterChunk
	if p == 1 {
		drawPosChunks(pos, n, tail, seed, 0, chunks, m)
	} else {
		sc.fc.n, sc.fc.tail, sc.fc.seed, sc.fc.m = n, tail, seed, m
		sc.fanout().ForChunksCtx(chunks, p, sc, taskDrawPos)
	}

	// Competition: write our (1-offset) index, read it back; losers
	// drop out. The serial path overwrites cells in ascending j order
	// so the largest j at a position wins; the parallel path
	// reproduces exactly that with a monotone CAS-max after clearing
	// the contested cells (out may arrive dirty from the caller).
	pm := par.Procs(p, m)
	if pm == 1 {
		for j, q := range pos {
			out[q] = int64(j + 1)
		}
	} else {
		sc.fc.out = out
		sc.fanout().ForChunksCtx(m, pm, sc, taskClearCells)
		sc.fanout().ForChunksCtx(m, pm, sc, taskCASMax)
	}

	// Read phase: each worker compacts its chunk's winners in draw
	// order into its own region of the staging buffer; the chunks are
	// then stitched serially, preserving global draw order.
	sc.winners = grow(sc.winners, m)
	sc.counts = grow(sc.counts, pm)
	winners, counts := sc.winners, sc.counts
	if pm == 1 {
		counts[0] = compactWinners(out, pos, winners, 0, m)
	} else {
		sc.fc.out = out
		sc.fanout().ForChunksCtx(m, pm, sc, taskCompactWinners)
	}
	sc.kept = grow(sc.kept, m+1)[:0]
	kept := append(sc.kept, -1) // vp 0: the head sublist, no splitter
	for w := 0; w < pm; w++ {
		lo, _ := par.Chunk(m, pm, w)
		kept = append(kept, winners[lo:lo+counts[w]]...)
	}
	sc.kept = kept
	dropped := m - (len(kept) - 1)

	// Clean the competition cells for the successor competition, which
	// relies on 0 meaning "nobody cut here" — including at the tail,
	// since out (the caller's dst) may have arrived dirty.
	if pm == 1 {
		for _, q := range pos {
			out[q] = 0
		}
	} else {
		sc.fanout().ForChunksCtx(m, pm, sc, taskClearCells)
	}
	out[tail] = 0
	return kept, dropped
}

// taskDrawPos, taskClearCells, taskCASMax and taskCompactWinners are
// the splitter draw's pool bodies; see drawSplitters for the phases.
func taskDrawPos(c any, _, clo, chi int) {
	sc := c.(*Scratch)
	drawPosChunks(sc.pos, sc.fc.n, sc.fc.tail, sc.fc.seed, clo, chi, sc.fc.m)
}

func taskClearCells(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	out, pos := sc.fc.out, sc.pos
	for j := lo; j < hi; j++ {
		atomic.StoreInt64(&out[pos[j]], 0)
	}
}

func taskCASMax(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	out, pos := sc.fc.out, sc.pos
	for j := lo; j < hi; j++ {
		a := &out[pos[j]]
		marker := int64(j + 1)
		for {
			cur := atomic.LoadInt64(a)
			if cur >= marker {
				break
			}
			if atomic.CompareAndSwapInt64(a, cur, marker) {
				break
			}
		}
	}
}

func taskCompactWinners(c any, w, lo, hi int) {
	sc := c.(*Scratch)
	sc.counts[w] = compactWinners(sc.fc.out, sc.pos, sc.winners, lo, hi)
}

// setup draws opt.M splitters, runs the duplicate-elimination
// competition (using out as the scratch cells the paper borrows from
// list storage), cuts the list, and returns the virtual processor
// table. Every stage — tail search (skipped when the caller passes a
// tail >= 0), splitter draw, competition, cut and identity overwrite —
// runs in parallel chunks under opt.Procs, with results identical to
// the single-worker run. On return the list is mutated: every splitter
// and the global tail are self-looped(*) with identity values;
// restore() undoes this.
// (*) splitters are self-looped; the global tail already is.
func setup(out []int64, l *list.List, values []int64, identity, tail int64, opt Options, sc *Scratch) (*vps, int64, int64) {
	n := l.Len()
	p := par.Procs(opt.Procs, n)
	if tail < 0 {
		tail = findTail(l, p, sc)
	}
	kept, dropped := drawSplitters(out, n, tail, opt.M, opt.Seed, p, sc)

	k := len(kept)
	v := sc.vps(k)
	v.h[0] = l.Head
	v.r[0] = -1
	v.saved[0] = identity // never a real splitter; defensive
	savedTail := values[tail]
	// Cut the list and identity-overwrite the values at every sublist
	// tail so the branch-free traversal loops can run past the end
	// harmlessly. Splitter positions are distinct, so the per-j writes
	// touch disjoint cells and parallelize freely.
	if p == 1 {
		cutChunk(l.Next, values, v, kept, identity, 0, k-1)
	} else {
		sc.fc.next, sc.fc.values, sc.fc.identity = l.Next, values, identity
		sc.fanout().ForChunksCtx(k-1, p, sc, taskCut)
	}
	values[tail] = identity
	if st := opt.Stats; st != nil {
		st.Sublists = k
		st.DuplicatesDropped = dropped
	}
	return v, tail, savedTail
}

func taskCut(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	cutChunk(sc.fc.next, sc.fc.values, &sc.v, sc.kept, sc.fc.identity, lo, hi)
}

// cutChunk self-loops splitters kept[lo+1 .. hi] and records them in
// the vp table; index translation matches the chunked fan-out over k-1.
func cutChunk(next, values []int64, v *vps, kept []int64, identity int64, lo, hi int) {
	for j := lo + 1; j < hi+1; j++ {
		q := kept[j]
		v.r[j] = q
		v.h[j] = next[q]
		v.saved[j] = values[q]
		next[q] = q // terminate the previous sublist with a self-loop
		values[q] = identity
	}
}

// restore undoes the list mutations performed by setup.
func restore(l *list.List, values []int64, v *vps, tail, savedTail int64) {
	for j := 1; j < len(v.r); j++ {
		p := v.r[j]
		l.Next[p] = v.h[j]
		values[p] = v.saved[j]
	}
	values[tail] = savedTail
}

// findSuccessors runs the Fig. 6 write/read competition that links the
// sublist sums into the reduced list: vp j writes its (1-offset) index
// at its splitter, then reads the index at the tail its Phase 1
// traversal reached. Reading 0 means no processor cut there, i.e. the
// vp owns the tail sublist. It uses out as scratch; the marker cells
// are deliberately not cleaned here, because Phase 3 unconditionally
// writes every vertex of every sublist — splitter vertices included —
// so no marker can survive into the results. Only the generic engine
// runs this competition — scanAdd (a rank or scan the encoded engine
// declined: DisableEncoding, a value outside int32, n >= 2^31) and
// scanOp — and both run Phase 3 after it;
// TestPhase3OverwritesSuccessorMarkers asserts the invariant with
// DisableEncoding set. The encoded engine reads successors from its
// Phase 1 records instead (linkSuccessors).
func findSuccessors(out []int64, v *vps, p int, sc *Scratch) {
	k := len(v.r)
	if p == 1 {
		writeSuccMarkers(out, v, 0, k-1)
		readSuccessors(out, v, 0, k)
		return
	}
	sc.fc.out = out
	sc.fanout().ForChunksCtx(k-1, p, sc, taskWriteSuccMarkers)
	sc.fanout().ForChunksCtx(k, p, sc, taskReadSuccessors)
}

func taskWriteSuccMarkers(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	writeSuccMarkers(sc.fc.out, &sc.v, lo, hi)
}

func taskReadSuccessors(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	readSuccessors(sc.fc.out, &sc.v, lo, hi)
}

func writeSuccMarkers(out []int64, v *vps, lo, hi int) {
	for j := lo + 1; j < hi+1; j++ {
		out[v.r[j]] = int64(j)
	}
}

func readSuccessors(out []int64, v *vps, lo, hi int) {
	for j := lo; j < hi; j++ {
		s := out[v.cur[j]]
		if s == 0 {
			v.succ[j] = int32(j) // tail sublist
		} else {
			v.succ[j] = int32(s)
		}
	}
}

// addScan is the dispatcher every integer-addition scan goes through
// — ScanInto, the boundary-list scan and Phase 2's recursion: the
// encoded engine when the problem qualifies and every value fits in
// int32, the generic engine (scanAdd) otherwise.
func addScan(out []int64, l *list.List, values []int64, opt Options, depth int, sc *Scratch) {
	if tail, ok := encoded(out, l, values, opt, depth, sc); !ok {
		scanAdd(out, l, values, tail, opt, depth, sc)
	}
}

// scanAdd runs the generic algorithm specialized to integer addition,
// two memory streams (Next and values) per link: the path for scans
// the encoded engine cannot take. The identity is 0. tail is the
// list's tail if the caller already knows it, -1 otherwise. It writes
// the exclusive scan into out.
func scanAdd(out []int64, l *list.List, values []int64, tail int64, opt Options, depth int, sc *Scratch) {
	n := l.Len()
	opt = opt.withDefaults(n)
	if st := opt.Stats; st != nil {
		st.Depth = depth
	}
	if n <= opt.SerialCutoff || opt.M < 1 {
		serialScanAddInto(out, l, values)
		return
	}
	v, tail, savedTail := setup(out, l, values, 0, tail, opt, sc)
	defer restore(l, values, v, tail, savedTail)
	k := len(v.r)
	p := par.Procs(opt.Procs, k)
	lanes := kernel.Width(opt.LaneWidth, n)

	// Phase 1: sublist sums via the lane-interleaved chase.
	opt.checkpoint(chaos.PointPhase1)
	if p == 1 {
		stripSumAdd(opt.Cancel, l.Next, values, v.h, v.sum, v.cur, 0, k, lanes)
	} else {
		sc.fc.next, sc.fc.values, sc.fc.lanes = l.Next, values, lanes
		sc.fc.cancel = opt.Cancel
		sc.fanout().ForChunksCtx(k, p, sc, taskSumAdd)
	}
	if opt.Stats != nil {
		opt.Stats.LinksTraversed += int64(n) // every vertex visited once
	}

	// A canceled Phase 1 leaves v.cur partially stale (see the same
	// guard in encoded); abandon before any stage consumes it.
	if opt.Cancel.Canceled() {
		panic(ErrCanceled)
	}
	findSuccessors(out, v, p, sc)

	// Fold each sublist's tail value (identity-overwritten in list
	// storage, preserved in saved) into the reduced value.
	if p == 1 {
		foldTailsAdd(v, 0, k)
	} else {
		sc.fanout().ForChunksCtx(k, p, sc, taskFoldTailsAdd)
	}

	// Phase 2: scan the reduced list of sublist sums.
	opt.checkpoint(chaos.PointPhase2)
	phase2(v, k, nil, 0, opt, depth, sc)

	// Phase 3: expand the head scan values across the sublists.
	opt.checkpoint(chaos.PointPhase3)
	if p == 1 {
		stripExpandAdd(opt.Cancel, out, l.Next, values, v.h, v.pfx, 0, k, lanes)
	} else {
		sc.fc.out, sc.fc.next, sc.fc.values, sc.fc.lanes = out, l.Next, values, lanes
		sc.fc.cancel = opt.Cancel
		sc.fanout().ForChunksCtx(k, p, sc, taskExpandAdd)
	}
	if opt.Stats != nil {
		opt.Stats.LinksTraversed += int64(n)
	}
	// A cancellation observed mid-Phase 3 left out partially written;
	// surface it (the deferred restore still un-mutates the list).
	if opt.Cancel.Canceled() {
		panic(ErrCanceled)
	}
}

func taskSumAdd(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	stripSumAdd(sc.fc.cancel, sc.fc.next, sc.fc.values, sc.v.h, sc.v.sum, sc.v.cur, lo, hi, sc.fc.lanes)
}

func taskFoldTailsAdd(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	foldTailsAdd(&sc.v, lo, hi)
}

func taskExpandAdd(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	stripExpandAdd(sc.fc.cancel, sc.fc.out, sc.fc.next, sc.fc.values, sc.v.h, sc.v.pfx, lo, hi, sc.fc.lanes)
}

func foldTailsAdd(v *vps, lo, hi int) {
	for j := lo; j < hi; j++ {
		s := v.succ[j]
		if int(s) != j {
			v.sum[j] += v.saved[s]
		}
	}
}

func serialScanAddInto(out []int64, l *list.List, values []int64) {
	v := l.Head
	next := l.Next
	var sum int64
	for {
		out[v] = sum
		sum += values[v]
		nx := next[v]
		if nx == v {
			return
		}
		v = nx
	}
}
