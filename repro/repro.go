// Package repro is the reproduction track of Reid-Miller's "List
// Ranking and List Scan on the Cray C-90": the algorithms the paper's
// evaluation compares, run on goroutines, and the replay of that
// evaluation on a simulated Cray C90 vector multiprocessor and a
// simulated DEC 3000/600 Alpha workstation (sim.go).
//
// The serving library, package listrank, runs only the paper's
// sublist algorithm (§2.5) and the serial walk (§2.1). This package
// adds the baselines: Wyllie's pointer jumping (§2.2), Miller-Reif
// (§2.3) and Anderson-Miller (§2.4) randomized splicing, and the §6
// deterministic ruling-set algorithm. Rank, Scan and ScanOp hand
// Sublist and Serial to package listrank, so every algorithm the paper
// measures is reachable through one entry point. cmd/listrank -algo
// and -sim and examples/simulator drive this package, and
// cmd/experiments regenerates the paper's tables from the same
// internal packages; see DESIGN.md, "Two execution tracks", and
// EXPERIMENTS.md.
package repro

import (
	"runtime"

	"listrank"
	"listrank/internal/list"
	"listrank/internal/randmate"
	"listrank/internal/ruling"
	"listrank/internal/wyllie"
)

// Algorithm names one of the paper's implementations.
type Algorithm int

const (
	// Sublist is the paper's algorithm (§2.5), run by package listrank.
	Sublist Algorithm = iota
	// Serial is the sequential walk (§2.1), run by package listrank.
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

// Options selects the algorithm of a goroutine-track run. The zero
// value runs the sublist algorithm on all available CPUs.
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
}

func (o Options) procs() int {
	if o.Procs > 0 {
		return o.Procs
	}
	return runtime.GOMAXPROCS(0)
}

// serving returns the options package listrank runs the call with:
// the serial walk for Serial, the sublist algorithm otherwise.
func (o Options) serving() listrank.Options {
	alg := listrank.Sublist
	if o.Algorithm == Serial {
		alg = listrank.Serial
	}
	return listrank.Options{Algorithm: alg, Procs: o.Procs, Seed: o.Seed}
}

// view returns the internal representation sharing l's storage. Every
// algorithm only reads it.
func view(l *listrank.List) *list.List {
	return &list.List{Next: l.Next, Value: l.Value, Head: l.Head}
}

// Rank returns the rank of every vertex under opt.Algorithm. Sublist
// and Serial run through listrank.RankWith; the reference algorithms
// allocate their working storage per call and do not poll
// cancellation. An empty list has an empty result under every
// algorithm.
func Rank(l *listrank.List, opt Options) []int64 {
	if l.Len() > 0 {
		switch opt.Algorithm {
		case Wyllie:
			return wyllie.RanksParallel(view(l), opt.procs())
		case MillerReif:
			return randmate.MillerReifRanks(view(l), randmate.Options{Seed: opt.Seed})
		case AndersonMiller:
			return randmate.AndersonMillerRanksParallel(view(l), randmate.Options{Seed: opt.Seed}, opt.procs())
		case RulingSet:
			return ruling.Ranks(view(l), ruling.Options{Procs: opt.procs()})
		}
	}
	return listrank.RankWith(l, opt.serving())
}

// Scan returns the exclusive integer-addition scan of every vertex
// under opt.Algorithm; storage and the empty list as in Rank.
func Scan(l *listrank.List, opt Options) []int64 {
	if l.Len() > 0 {
		switch opt.Algorithm {
		case Wyllie:
			return wyllie.ScanParallel(view(l), opt.procs())
		case MillerReif:
			return randmate.MillerReifScan(view(l), randmate.Options{Seed: opt.Seed})
		case AndersonMiller:
			return randmate.AndersonMillerScanParallel(view(l), randmate.Options{Seed: opt.Seed}, opt.procs())
		case RulingSet:
			return ruling.Scan(view(l), ruling.Options{Procs: opt.procs()})
		}
	}
	return listrank.ScanWith(l, opt.serving())
}

// ScanOp computes the exclusive scan under an arbitrary associative
// operator with the given identity, combining strictly preceding
// values in list order (safe for non-commutative operators). Only
// Sublist, Serial and Wyllie support general operators; the other
// algorithms run Sublist.
func ScanOp(l *listrank.List, op func(a, b int64) int64, identity int64, opt Options) []int64 {
	if l.Len() > 0 && opt.Algorithm == Wyllie {
		return wyllie.ScanOpParallel(view(l), op, identity, opt.procs())
	}
	return listrank.ScanOpWith(l, op, identity, opt.serving())
}
