package core

import (
	"sync"

	"listrank/internal/arena"
	"listrank/internal/list"
	"listrank/internal/par"
)

// This file implements the reusable scratch arena behind the
// zero-steady-state-allocation engine. The paper's whole argument (§1,
// §3) is that constants, not asymptotics, decide whether parallel list
// ranking beats the serial walk, and Table II counts every word of the
// 5p+c working space. Allocating (and zeroing) that working space on
// every call is a constant-factor tax the paper's accounting never
// pays: a Cray program allocates its vectors once and streams problems
// through them. Scratch restores that discipline on the goroutine
// track: one arena owns every per-call buffer the algorithm needs, each
// buffer grows geometrically and is reused verbatim, so a warm arena
// services any number of calls — across varying list lengths and
// algorithms — without touching the heap.

// Scratch is the reusable working-space arena for the sublist engine.
// A Scratch may be reused across calls of any size and algorithm but
// must not be used by two calls concurrently; use one per goroutine
// (the package-level entry points keep a sync.Pool of them).
type Scratch struct {
	// v backs the virtual-processor table (the paper's 5p words,
	// Table II). Slices are resized views of the same backing arrays.
	v vps

	// Splitter-selection buffers: drawn positions, per-worker winner
	// staging and counts, and the kept table (vp index -> splitter).
	pos     []int64
	winners []int64
	counts  []int
	kept    []int64

	// tails holds the encode pass's per-worker tail finds.
	tails []int64

	// enc holds the words the engine derives from the list — n narrow
	// words (§3) or 2n wide ones — which Phase 1 overwrites with
	// records; encSum holds the encode pass's per-worker weights
	// against the narrow layout's bound (encFill). One buffer serves
	// both layouts, so an arena never holds more than 16 bytes per
	// vertex here.
	enc    []uint64
	encSum []int64

	// in is the reused header of the reduced list a child arena runs
	// for its parent (phase2), so no list.List is allocated per call.
	// stats is a child's Stats, kept out of the caller's.
	in    list.List
	stats Stats

	// child is the arena Phase 2 runs the reduced list in, created on
	// first use and reused for every later call.
	child *Scratch

	// pool is the resident worker pool used for every fan-out (layer 0
	// of the arena architecture); nil selects the process-wide shared
	// pool. Recursion hands the same pool to the child arena.
	pool *par.Pool

	// fc stashes the per-dispatch arguments read by the named pool
	// task functions (task* in this package). Pool bodies must be
	// closure-free to keep steady-state calls allocation-free — a
	// closure literal escaping into the pool's job slot heap-allocates
	// on every call — so each fan-out site writes its varying
	// arguments here and passes the Scratch itself as the dispatch
	// context. Caller-owned references are dropped by releaseCall at
	// the end of every exported entry point.
	fc struct {
		out, next, values []int64
		op                func(a, b int64) int64
		cancel            *Cancel
		identity          int64
		n, m              int
		tail              int64
		seed              uint64
		stride, lanes     int
		lay               layout
	}
}

// SetPool selects the resident worker pool this arena dispatches its
// fan-outs on; nil (the default) selects the process-wide par.Shared()
// pool. An engine that owns a pool the way it owns its arena passes it
// here once; the pool is not closed by the arena.
func (sc *Scratch) SetPool(pl *par.Pool) {
	sc.pool = pl
	if sc.child != nil {
		sc.child.SetPool(pl)
	}
}

// fanout returns the pool every parallel phase dispatches on.
func (sc *Scratch) fanout() *par.Pool {
	if sc.pool != nil {
		return sc.pool
	}
	return par.Shared()
}

// releaseCall drops the fan-out stash's and the list header's
// references to caller-owned storage (dst, the list's Next/Value
// arrays, the operator, the cancel token) so a held or pooled arena
// never keeps a finished problem alive. A child arena holds the
// caller's operator and token too, so the release recurses.
func (sc *Scratch) releaseCall() {
	sc.fc.out, sc.fc.next, sc.fc.values = nil, nil, nil
	sc.fc.op = nil
	sc.fc.cancel = nil
	sc.in = list.List{}
	if sc.child != nil {
		sc.child.releaseCall()
	}
}

// NewScratch returns an empty arena. Buffers are allocated lazily on
// first use and grow geometrically, so the first call at a given size
// pays the allocations and subsequent calls pay none.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool backs the package-level entry points (Ranks, Scan,
// ScanOp, …): callers that do not hold a Scratch of their own still
// amortize working-space allocation across calls.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }

// grow resizes a buffer through the shared arena helper (contents
// unspecified; see internal/arena). The primitive started life here
// and was extracted so the tree and graph engines share one
// definition; the local name keeps the many core call sites short.
func grow[T any](b []T, n int) []T { return arena.Grow(b, n) }

// vps returns the virtual-processor table resized to k entries.
// Contents are unspecified; each phase fills every field it reads.
func (sc *Scratch) vps(k int) *vps {
	sc.v.h = grow(sc.v.h, k)
	sc.v.sum = grow(sc.v.sum, k)
	sc.v.cur = grow(sc.v.cur, k)
	sc.v.succ = grow(sc.v.succ, k)
	sc.v.pfx = grow(sc.v.pfx, k)
	return &sc.v
}

// childScratch returns the arena Phase 2 runs the reduced list in,
// creating it on first use. It dispatches on the same pool.
func (sc *Scratch) childScratch() *Scratch {
	if sc.child == nil {
		sc.child = NewScratch()
		sc.child.pool = sc.pool
	}
	return sc.child
}
