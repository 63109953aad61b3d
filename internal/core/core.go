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
//   - Each sublist tail is terminated with a self-loop (§3, Phase 1),
//     so the traversal stops where a link points back at itself. The
//     cut is made in words the engine derives from the list, never in
//     the list itself, and the tail keeps its value, so a sublist's
//     fold is complete when its chase stops. The paper's destructive
//     variant — cutting the list in place and overwriting each tail's
//     value with the operator identity — and its Fig. 6 successor
//     competition, which writes each virtual processor's index at its
//     splitter and reads the index at the tail its traversal reached,
//     live only in package vecalg on the simulated C-90. Here a
//     sublist's successor is read from the Phase 1 record at the head
//     that follows its tail.
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
// Phase 1 records and Phase 3 streams (encoded.go): as a lane reads a
// vertex's words it overwrites them with the vertex's sublist and its
// offset or local prefix, and Phase 3 is one streaming pass in vertex
// order. The words come in two layouts, picked once per call: ranks
// and addition scans whose values fit in int32 chase the paper's
// single-gather encoded word (§3, 8 bytes per vertex); every other
// problem — any operator, a wide value, a list of 2^31 vertices or
// more — chases a 16-byte {link, value} pair. Neither writes the
// caller's list.
//
// All working space — the virtual-processor table, splitter buffers,
// derived words and Phase 2 storage — lives in a reusable Scratch
// arena (scratch.go). The package-level entry points draw arenas from
// a pool; callers with a steady stream of problems hold one Scratch
// (via listrank.Engine) and perform zero heap allocations per call
// once the arena is warm.
package core

import (
	"math/bits"
	"sync/atomic"

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
	// Encoded reports whether the run chased the narrow single-gather
	// word (§3, encoded.go): ranks, and addition scans whose values all
	// fit in int32, of lists longer than the serial cutoff and shorter
	// than 2^31 vertices, unless DisableEncoding is set. Every other
	// run above the cutoff chases the wide {link, value} pair.
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
	// DisableEncoding sends every problem to the wide {link, value}
	// layout (see encoded.go), ranks and addition scans included,
	// instead of the narrow single-gather word (§3). It exists for the
	// BenchmarkAblation_EncodedRank comparison and so the differential
	// suites can compare the two layouts.
	DisableEncoding bool
	// Cancel, if non-nil, makes the run cooperatively cancelable: it is
	// polled at phase boundaries and between kernel chunk strips (see
	// cancel.go for the cost bound), and a run that observes
	// cancellation panics with ErrCanceled at its next phase boundary.
	// The list is never written, so an abandoned run leaves nothing to
	// undo; only dst is partial. Nil (the default) compiles the checks
	// down to nil-receiver short-circuits.
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
// precede it in the list. It never writes l. Working space comes from
// a pooled Scratch.
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
	encoded(dst, l, nil, nil, 0, opt, 0, sc)
}

// Scan returns the exclusive list scan of l under integer addition. It
// never writes l.
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
	encoded(dst, l, l.Value, nil, 0, opt, 0, sc)
}

// ScanOp returns the exclusive list scan of l under an arbitrary
// associative operator with the given identity, combining strictly
// preceding values in list order (safe for non-commutative operators).
// It never writes l.
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
	encoded(dst, l, l.Value, op, identity, opt, 0, sc)
}

// vps holds the per-virtual-processor (per-sublist) state: the paper's
// five words per virtual processor (Table II: 5p+c space), kept as
// parallel arrays backed by the Scratch arena so they are allocated
// once and reused.
type vps struct {
	h    []int64 // sublist head
	sum  []int64 // Phase 1 fold of the sublist / Phase 2 reduced value
	cur  []int64 // tail the Phase 1 chase reached
	succ []int32 // successor sublist index (self for the tail sublist)
	pfx  []int64 // Phase 2 result: scan value for the sublist head
}

// splitterChunk is the fixed granule of the parallel splitter draw:
// chunk c owns draw positions [c·splitterChunk, (c+1)·splitterChunk)
// and fills them from its own seed-derived stream. Because the grid is
// fixed, the drawn sequence depends only on the seed and M — never on
// the worker count — so runs are reproducible across Procs settings.
const splitterChunk = 4096

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

// drawSplitters draws m splitter positions (avoiding the tail), runs
// the paper's write/read duplicate-elimination competition in out, and
// returns the kept table (kept[0] is the -1 sentinel for the head
// sublist; kept[j] for j >= 1 is the j-th surviving splitter, in draw
// order) plus the number of duplicates dropped.
// The competition leaves markers in out, which the engine's Phase 3
// overwrites.
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
	return kept, m - (len(kept) - 1)
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

// serialScanAddInto writes the exclusive addition scan of values
// into out — ranks when values is nil — with the serial walk: the
// engine's path at or below the serial cutoff.
func serialScanAddInto(out []int64, l *list.List, values []int64) {
	v := l.Head
	next := l.Next
	var sum int64
	for {
		out[v] = sum
		if values == nil {
			sum++
		} else {
			sum += values[v]
		}
		nx := next[v]
		if nx == v {
			return
		}
		v = nx
	}
}

// serialScanOpInto is serialScanAddInto under an arbitrary associative
// operator with the given identity.
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
