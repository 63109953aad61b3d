package listrank

import (
	"fmt"

	"listrank/internal/kernel"
	"listrank/internal/list"
	"listrank/internal/par"
)

// ScanValues computes the exclusive list scan of vals along l under an
// arbitrary associative operator: out[v] is the op-fold, in list
// order, of the values of all vertices strictly preceding v, and
// identity at the head. The operator need not be commutative —
// composition of functions, matrix products and string concatenation
// are all fine — which is the paper's list scan (§2) freed from the
// int64 specialization of Scan. vals is indexed by vertex (parallel to
// l.Next) and must have length l.Len(); the list's Value is ignored.
//
// A list of 2^20 vertices or more is ranked as by RankInto (M, Seed,
// LaneWidth and Procs apply), the ranks are inverted into the
// permutation that lays the list out as an array (§2), and vals is
// scanned along it in Procs contiguous blocks: fold each, scan the
// block totals, expand each. op runs on several goroutines at once, on
// disjoint blocks, so it must be a pure function. Shorter lists, and
// Algorithm Serial, take the one-pass serial walk, which is as fast or
// faster there. The list is never mutated. The ranked path holds 16n
// bytes of ranks and permutation besides the engine's arena. A list
// that is not one chain panics with an error for which
// errors.Is(err, ErrNotList) holds, rather than spin or return a wrong
// answer.
func ScanValues[T any](l *List, vals []T, op func(T, T) T, identity T, opt Options) []T {
	n := l.Len()
	if len(vals) != n {
		panic(fmt.Sprintf("listrank: ScanValues: len(vals) = %d, want list length %d", len(vals), n))
	}
	out := make([]T, n)
	switch {
	case n == 0:
	case opt.Algorithm == Serial || n < scanValuesRankedMin:
		scanValuesSerial(l, vals, op, identity, out)
	default:
		scanValuesRanked(l, vals, op, identity, opt, out)
	}
	return out
}

// scanValuesRankedMin is where ScanValues starts to rank. Below it the
// walk won or tied on a 2×2 int64 matrix product at Procs 1 and 2,
// while int64 addition ranked up to 30% faster; one bound serves every
// element size (EXPERIMENTS.md, "ScanValues on the one engine").
const scanValuesRankedMin = 1 << 20

// scanValuesSerial is the one-pass walk over a non-empty list. It
// returns only on reaching the tail at link n−1: sooner, it has left
// vertices unvisited; later, it is going round a cycle. A head or link
// outside the list refuses it too.
func scanValuesSerial[T any](l *List, vals []T, op func(T, T) T, identity T, out []T) {
	acc := identity
	v := l.Head
	for i := 0; i < len(l.Next); i++ {
		if uint64(v) >= uint64(len(l.Next)) {
			panic(list.ErrNotList)
		}
		out[v] = acc
		next := l.Next[v]
		if next == v {
			if i < len(l.Next)-1 {
				panic(list.ErrNotList)
			}
			return
		}
		acc = op(acc, vals[v])
		v = next
	}
	panic(list.ErrNotList)
}

// scanValuesRanked is the ranked path over a non-empty list; perm[r]
// is the vertex at position r, and the last block's total is never
// needed. The expand pass proves the list is one chain from the head:
// perm[0] is the head, Next[perm[i]] is perm[i+1], and only perm[n−1]
// is a self-loop (a vertex repeated in perm would put perm[n−1] on a
// cycle, closed only by a second self-loop), so the answer is the
// walk's whatever the ranks were.
func scanValuesRanked[T any](l *List, vals []T, op func(T, T) T, identity T, opt Options, out []T) {
	n := l.Len()
	rank := make([]int64, n)
	RankInto(rank, l, opt)
	perm := make([]int64, n)
	kernel.SeqRank(perm, rank)
	p := par.Procs(opt.procs(), n)
	prefix := make([]T, p)
	par.Shared().ForChunks(n, p, func(w, lo, hi int) {
		if w == p-1 {
			return
		}
		acc := identity
		for _, v := range perm[lo:hi] {
			acc = op(acc, vals[v])
		}
		prefix[w+1] = acc
	})
	prefix[0] = identity
	for w := 1; w < p; w++ {
		prefix[w] = op(prefix[w-1], prefix[w])
	}
	par.Shared().ForChunks(n, p, func(w, lo, hi int) {
		acc := prefix[w]
		for i := lo; i < hi; i++ {
			v, succ := perm[i], perm[min(i+1, n-1)] // the tail links to itself
			if l.Next[v] != succ || succ == v && i < n-1 || i == 0 && v != l.Head {
				panic(list.ErrNotList)
			}
			out[v] = acc
			acc = op(acc, vals[v])
		}
	})
}
