package kernel

import "unsafe"

// Jump kernels: one round of Wyllie pointer doubling over the Phase 2
// reduced list, on the engine's double-buffered value/link columns.
// The iterations are independent (each reads the old buffers, writes
// the new), so they expose one gather per element to the memory
// system; the kernels remove the three implicit
// bounds checks per element the safe form pays on the data-dependent
// link reads.

// JumpAdd performs one successor-oriented doubling round under
// integer addition over elements [lo, hi): val2[j] = val[j] +
// val[lnk[j]], lnk2[j] = lnk[lnk[j]].
func JumpAdd(val2 []int64, lnk2 []int32, val []int64, lnk []int32, lo, hi int) {
	if hi <= lo {
		return
	}
	checkChunk(lo, hi, len(val2), len(lnk2), min(len(val), len(lnk)))
	k := uint64(min(len(val), len(lnk)))
	vb, lb := unsafe.SliceData(val), unsafe.SliceData(lnk)
	v2, l2 := unsafe.SliceData(val2), unsafe.SliceData(lnk2)
	for j := int64(lo); j < int64(hi); j++ {
		s := int64(ld(lb, j))
		chk(s, k)
		st(v2, j, ld(vb, j)+ld(vb, s))
		st(l2, j, ld(lb, s))
	}
}

// JumpOp performs one predecessor-oriented doubling round under an
// arbitrary associative operator over elements [lo, hi): val2[j] =
// op(val[prd[j]], val[j]) — the earlier segment folds first, which
// keeps non-commutative operators correct — and prd2[j] = prd[prd[j]].
func JumpOp(val2 []int64, prd2 []int32, val []int64, prd []int32, op func(a, b int64) int64, lo, hi int) {
	if hi <= lo {
		return
	}
	checkChunk(lo, hi, len(val2), len(prd2), min(len(val), len(prd)))
	k := uint64(min(len(val), len(prd)))
	vb, lb := unsafe.SliceData(val), unsafe.SliceData(prd)
	v2, l2 := unsafe.SliceData(val2), unsafe.SliceData(prd2)
	for j := int64(lo); j < int64(hi); j++ {
		s := int64(ld(lb, j))
		chk(s, k)
		st(v2, j, op(ld(vb, s), ld(vb, j)))
		st(l2, j, ld(lb, s))
	}
}
