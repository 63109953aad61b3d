// Package listrank is a Go reproduction of Margaret Reid-Miller's
// "List Ranking and List Scan on the Cray C-90" (SPAA 1994; JCSS 53,
// 1996): work-efficient parallel list ranking and list scan with small
// constants, built on randomized sublist contraction.
//
// # The operations
//
// List ranking finds, for every vertex of a linked list, the number of
// vertices that precede it. List scan (parallel prefix on a list)
// computes, for every vertex, the "sum" of all strictly preceding
// values under a binary associative operator; ranking is the scan of
// unit values under +. Both are building blocks for parallel tree and
// graph algorithms (Euler tours, tree contraction, connectivity).
//
// # The algorithm
//
// The default algorithm is the paper's: cut the list at m random
// positions into independent sublists, reduce each sublist to its sum
// in parallel (Phase 1), scan the short reduced list (Phase 2), and
// expand the prefixes back across the sublists (Phase 3). It does
// O(n) work with constants small enough to compete with the trivial
// serial walk, at the price of O((n/p) + (n/m)·log m) parallel time —
// the paper's argument being that real machines run problems far
// larger than their processor counts, so work and constants dominate.
//
// Four reference algorithms from the paper's evaluation are also
// exposed: the serial walk, Wyllie's pointer jumping, and the
// Miller-Reif and Anderson-Miller randomized contraction baselines.
// ScanValues generalizes the scan to arbitrary associative operators
// over any element type, as the paper's own definition allows.
//
// # The engine layer
//
// Rank and Scan allocate a result slice per call but draw all working
// space from a pool of reusable engines. Callers with a steady stream
// of problems should hold an Engine and use RankInto / ScanInto /
// ScanOpInto (also available as package-level functions backed by the
// pool): with caller-provided result storage and a warm engine, calls
// are allocation-free. See DESIGN.md for the arena layout.
//
// # The serving layer
//
// Server is the traffic-facing front: a long-lived fleet of warm
// engines, sharded by problem-size bin, behind an asynchronous
// Submit/Wait future API with request coalescing, bounded admission
// queues with backpressure, and deterministic draining Close. RankAll
// and ScanAll batch over the process-wide SharedServer. cmd/listrankd
// replays synthetic traffic traces against a server and reports
// throughput, latency and coalescing statistics.
//
// # Downstream applications
//
// The tree package builds Euler-tour statistics, constant-time LCA,
// tree rooting and expression-tree contraction (rake-only and full
// rake+compress) on these primitives; the graph package stacks
// connected components, spanning forests and Tarjan-Vishkin
// biconnectivity on top of those — the application classes the
// paper's introduction and closing question point at.
//
// # Two execution tracks
//
// The package computes real results on goroutines (this file), and can
// additionally replay the paper's cycle-level evaluation on a
// simulated Cray C90 vector multiprocessor and a simulated DEC
// 3000/600 workstation (sim.go) — see DESIGN.md and EXPERIMENTS.md.
package listrank

import (
	"runtime"

	"listrank/internal/core"
	"listrank/internal/list"
	"listrank/internal/randmate"
	"listrank/internal/ruling"
	"listrank/internal/wyllie"
)

// List is a linked list in the array-of-links representation all the
// algorithms share: Next[v] is the successor of vertex v (the tail
// links to itself), Value[v] is the vertex's value for list scan, and
// Head is the first vertex. Ranking ignores Value.
type List struct {
	// Next[v] is the successor of vertex v; the tail links to itself.
	Next []int64
	// Value[v] is the vertex's value for list scan (ignored by
	// ranking).
	Value []int64
	// Head is the first vertex of the list.
	Head int64
}

// view returns the internal representation sharing this list's
// storage. Every algorithm only reads it.
func (l *List) view() *list.List {
	return &list.List{Next: l.Next, Value: l.Value, Head: l.Head}
}

// Len returns the number of vertices.
func (l *List) Len() int { return len(l.Next) }

// Validate checks that the list is a single chain over all vertices
// ending in a self-loop, and returns a descriptive error otherwise.
func (l *List) Validate() error { return l.view().Validate() }

// NewRandomList returns a list of n vertices in uniformly random
// order with unit values — the paper's benchmark workload (random
// placement also avoids systematic memory-bank conflicts on the
// simulated machine).
func NewRandomList(n int, seed uint64) *List {
	il := list.NewRandom(n, rngFor(seed))
	return &List{Next: il.Next, Value: il.Value, Head: il.Head}
}

// NewOrderedList returns a list laid out sequentially in memory
// (vertex i links to i+1), the cache-friendly extreme.
func NewOrderedList(n int) *List {
	il := list.NewOrdered(n)
	return &List{Next: il.Next, Value: il.Value, Head: il.Head}
}

// FromOrder builds a list that visits order[0], order[1], … in
// sequence; order must be a permutation of [0, len(order)).
func FromOrder(order []int) *List {
	il := list.FromOrder(order)
	return &List{Next: il.Next, Value: il.Value, Head: il.Head}
}

// Algorithm selects which of the paper's five implementations runs.
type Algorithm int

const (
	// Sublist is the paper's algorithm (§2.5) — the default.
	Sublist Algorithm = iota
	// Serial is the sequential walk (§2.1).
	Serial
	// Wyllie is pointer jumping (§2.2): simple, O(n log n) work, best
	// only on short lists.
	Wyllie
	// MillerReif is randomized splicing with per-round packing (§2.3).
	MillerReif
	// AndersonMiller is queue-based randomized splicing with a biased
	// coin (§2.4).
	AndersonMiller
	// RulingSet is the deterministic contraction algorithm built on
	// Cole-Vishkin coin tossing and 2-ruling sets — the family §6 of
	// the paper surveys and predicts to be uncompetitive. Included so
	// that prediction is measurable; it is deterministic (ignores
	// Seed) and never mutates the list.
	RulingSet
)

// String returns the algorithm's name as used in the paper.
func (a Algorithm) String() string {
	switch a {
	case Sublist:
		return "sublist"
	case Serial:
		return "serial"
	case Wyllie:
		return "wyllie"
	case MillerReif:
		return "miller-reif"
	case AndersonMiller:
		return "anderson-miller"
	case RulingSet:
		return "ruling-set"
	}
	return "unknown"
}

// Options tunes a run. The zero value selects the sublist algorithm
// with automatic parameters on all available CPUs.
type Options struct {
	// Algorithm selects the implementation (default Sublist).
	Algorithm Algorithm
	// Procs is the number of worker goroutines; 0 means GOMAXPROCS.
	// Serial and MillerReif are single-threaded and ignore it, as in
	// the paper; AndersonMiller parallelizes across its queues.
	Procs int
	// Seed drives splitter selection and coin flips. Results never
	// depend on it; only performance does.
	Seed uint64
	// M overrides the sublist algorithm's splitter count (0 = auto,
	// ≈ n/log n).
	M int
	// LaneWidth is the number of independent sublist cursors each
	// worker interleaves in the sublist algorithm's hot chase loops —
	// the software analog of the paper's vector lanes. 0 selects the
	// tuned per-regime default; 1 forces the serial single-cursor
	// walk; values are clamped to the kernel's maximum (32). Results
	// are identical at every width; only the memory-level parallelism
	// differs. See cmd/tune -lanes for measuring the best width on a
	// given host.
	LaneWidth int
	// cancel is the serving layer's cooperative cancellation token,
	// threaded through to the core engine. Requests carry deadlines and
	// contexts (Request.Deadline, Request.Ctx) rather than setting this
	// directly; the reference algorithms do not poll it.
	cancel *core.Cancel
}

func (o Options) procs() int {
	if o.Procs > 0 {
		return o.Procs
	}
	return runtime.GOMAXPROCS(0)
}

// Rank returns the rank of every vertex using the default algorithm
// and options.
func Rank(l *List) []int64 { return RankWith(l, Options{}) }

// Scan returns the exclusive integer-addition scan of every vertex
// using the default algorithm and options: out[v] is the sum of the
// values of all vertices strictly preceding v, 0 at the head.
func Scan(l *List) []int64 { return ScanWith(l, Options{}) }

// RankWith is Rank with explicit options. The sublist and serial
// algorithms run through a pooled Engine, so repeated calls reuse
// working space and only the result slice is allocated; the reference
// algorithms keep their own storage behavior.
func RankWith(l *List, opt Options) []int64 {
	switch opt.Algorithm {
	case Wyllie:
		return wyllie.RanksParallel(l.view(), opt.procs())
	case MillerReif:
		return randmate.MillerReifRanks(l.view(), randmate.Options{Seed: opt.Seed})
	case AndersonMiller:
		return randmate.AndersonMillerRanksParallel(l.view(), randmate.Options{Seed: opt.Seed}, opt.procs())
	case RulingSet:
		return ruling.Ranks(l.view(), ruling.Options{Procs: opt.procs()})
	default: // Sublist, Serial
		out := make([]int64, l.Len())
		RankInto(out, l, opt)
		return out
	}
}

// ScanWith is Scan with explicit options; storage behavior as in
// RankWith.
func ScanWith(l *List, opt Options) []int64 {
	switch opt.Algorithm {
	case Wyllie:
		return wyllie.ScanParallel(l.view(), opt.procs())
	case MillerReif:
		return randmate.MillerReifScan(l.view(), randmate.Options{Seed: opt.Seed})
	case AndersonMiller:
		return randmate.AndersonMillerScanParallel(l.view(), randmate.Options{Seed: opt.Seed}, opt.procs())
	case RulingSet:
		return ruling.Scan(l.view(), ruling.Options{Procs: opt.procs()})
	default: // Sublist, Serial
		out := make([]int64, l.Len())
		ScanInto(out, l, opt)
		return out
	}
}

// ScanOpWith computes the exclusive scan under an arbitrary
// associative operator with the given identity, combining strictly
// preceding values in list order (safe for non-commutative
// operators). Only the Sublist, Serial and Wyllie algorithms support
// general operators; others fall back to Sublist. The sublist and
// serial paths run through a pooled Engine like RankWith.
func ScanOpWith(l *List, op func(a, b int64) int64, identity int64, opt Options) []int64 {
	switch opt.Algorithm {
	case Wyllie:
		return wyllie.ScanOpParallel(l.view(), op, identity, opt.procs())
	default:
		out := make([]int64, l.Len())
		ScanOpInto(out, l, op, identity, opt)
		return out
	}
}

func coreOptions(opt Options) core.Options {
	return core.Options{
		Seed:      opt.Seed,
		M:         opt.M,
		Procs:     opt.procs(),
		LaneWidth: opt.LaneWidth,
		Cancel:    opt.cancel,
	}
}
