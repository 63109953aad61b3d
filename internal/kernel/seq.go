package kernel

import "unsafe"

// Sequential kernels: the streaming loops a request degenerates to
// once its list has a live reordered layout (the serving layer's
// reorder cache). A rank is exactly the permutation that turns the
// linked list into an array — the paper's §2 observation — so after a
// one-time re-layout the hot traversals stop chasing links entirely:
//
//   - rank on a reordered list is iota composed with the cached
//     permutation (SeqRank) — or, when the composed table is itself
//     cached, a straight memcpy;
//   - scan is one streaming pass over the value array in list order
//     with results scattered back through the permutation (SeqScanAdd,
//     SeqScanOp).
//
// None of these loops follows a link, so there is nothing for the
// lane machinery to overlap: the arrays are read in memory order at
// prefetcher speed, and the only data-dependent accesses are the
// permutation-directed stores, which are independent (full miss-level
// parallelism without any lane bookkeeping). Like every kernel in
// this package they are allocation-free and compile without
// compiler-inserted bounds checks (scripts/check_bce.sh covers this
// file as part of the package gate); the permutation-directed stores
// go through the same one-explicit-guard-per-index discipline (chk)
// as the chase gathers, so a corrupted permutation panics instead of
// touching memory outside the caller's slices.

// checkPerm validates that perm and out (and, for the scan kernels,
// seq) have equal lengths, so the hot loops can index seq by the range
// variable and out through unchecked stores.
func checkPerm(lout, lseq, lperm int) {
	if lout != lperm || lseq != lperm {
		panic("kernel: permutation and data lengths disagree")
	}
}

// SeqRank writes out[perm[r]] = r for every position r: iota composed
// with the permutation. Since a rank table is itself a permutation
// (vertex → position), SeqRank also inverts one — SeqRank(perm, rank)
// recovers the position → vertex table the reorder cache serves scans
// through, and SeqRank(rank, perm) recovers the ranks from it.
func SeqRank(out, perm []int64) {
	checkPerm(len(out), len(perm), len(perm))
	n := uint64(len(out))
	ob := unsafe.SliceData(out)
	for r, p := range perm {
		chk(p, n)
		st(ob, p, int64(r))
	}
}

// SeqScanAdd writes the exclusive integer-addition scan of a
// reordered list back into vertex order: seq holds the values in list
// order (seq[r] = value of the vertex at position r), perm maps
// positions to vertex ids, and out[perm[r]] receives the sum of
// seq[:r]. The reads stream; the scattered stores are independent, so
// the memory system overlaps them without any lane state.
func SeqScanAdd(out, seq, perm []int64) {
	checkPerm(len(out), len(seq), len(perm))
	n := uint64(len(out))
	ob := unsafe.SliceData(out)
	seq = seq[:len(perm)]
	var acc int64
	for r, p := range perm {
		chk(p, n)
		st(ob, p, acc)
		acc += seq[r]
	}
}

// SeqScanOp is SeqScanAdd under an arbitrary associative operator
// with the given identity. The fold order is list order — the serial
// walk's — so non-commutative operators are safe.
func SeqScanOp(out, seq, perm []int64, op func(a, b int64) int64, identity int64) {
	checkPerm(len(out), len(seq), len(perm))
	n := uint64(len(out))
	ob := unsafe.SliceData(out)
	seq = seq[:len(perm)]
	acc := identity
	for r, p := range perm {
		chk(p, n)
		st(ob, p, acc)
		acc = op(acc, seq[r])
	}
}
