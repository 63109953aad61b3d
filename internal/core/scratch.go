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
	// records; encOK holds the encode pass's per-worker "every word
	// encoded exactly" flags. One buffer serves both layouts, so an
	// arena never holds more than 16 bytes per vertex here.
	enc   []uint64
	encOK []bool

	// Phase 2 pointer-jumping buffers (values and links, double
	// buffered), shared by the add and generic-operator solvers.
	jval, jval2 []int64
	jlnk, jlnk2 []int32

	// Phase 2 recursion storage: succ widened to int64 links, plus a
	// reusable list header so no list.List is allocated per call.
	rlNext []int64
	rl     list.List

	// bl is the reusable header for the boundary-list entry points
	// (segrank.go). It is distinct from rl because a boundary scan that
	// recurses in its own Phase 2 uses rl at the same time.
	bl list.List

	// child is the arena for Phase 2 recursion, created on first use
	// and reused for every later recursive call.
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
		k, p, rounds      int
		lanes             int
		lay               layout
		val, val2         []int64
		lnk, lnk2         []int32
		total             int64
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

// releaseCall drops the fan-out stash's references to caller-owned
// storage (dst, the list's Next/Value arrays, the operator) so a held
// or pooled arena never keeps a finished problem alive. The child
// arena's stash only ever references this arena's own buffers, so it
// needs no recursive release.
func (sc *Scratch) releaseCall() {
	sc.fc.out, sc.fc.next, sc.fc.values = nil, nil, nil
	sc.fc.op = nil
	sc.fc.cancel = nil
	sc.fc.val, sc.fc.val2, sc.fc.lnk, sc.fc.lnk2 = nil, nil, nil, nil
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

// reducedView materializes a list.List view of the reduced list for
// Phase 2 recursion without per-call allocation: the int32 succ links
// are widened into a reused buffer and v.sum is shared as the value
// array (the recursive call only reads it).
func (sc *Scratch) reducedView(v *vps, k, p int) *list.List {
	sc.rlNext = grow(sc.rlNext, k)
	rn := sc.rlNext
	if p == 1 {
		widenSucc(rn, v.succ, 0, k)
	} else {
		sc.fanout().ForChunksCtx(k, p, sc, taskWidenSucc)
	}
	sc.rl = list.List{Next: rn, Value: v.sum[:k], Head: 0}
	return &sc.rl
}

func taskWidenSucc(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	widenSucc(sc.rlNext, sc.v.succ, lo, hi)
}

func widenSucc(dst []int64, succ []int32, lo, hi int) {
	for j := lo; j < hi; j++ {
		dst[j] = int64(succ[j])
	}
}

// childScratch returns the arena for one level of Phase 2 recursion,
// creating it on first use. It dispatches on the same pool.
func (sc *Scratch) childScratch() *Scratch {
	if sc.child == nil {
		sc.child = NewScratch()
		sc.child.pool = sc.pool
	}
	return sc.child
}
