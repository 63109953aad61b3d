package kernel

import "unsafe"

// Chase-twice kernels: run sublists [lo, hi) to completion for Phases
// 1 and 3, K lanes at a time, the vector-machine way — Phase 3 chases
// every sublist a second time. The engine records and streams instead
// (record.go); these kernels serve only the benchmark's kernel rung
// (perfbench), which times them as the chase's reference figure. Each
// kernel takes the virtual-processor arrays by slice (heads h, and for
// the Phase 1 kernels the sum and tail-cursor result columns),
// validates the chunk bounds once, and then runs entirely on unchecked
// accesses with chk guarding every followed link. The per-sublist
// traversal order is exactly the serial walk's, so results are
// bit-identical for every lane width; only the interleaving across
// sublists differs.

// SumEnc is the single-gather (§3) rank chase over sublists [lo, hi)
// in the chase-twice encoding, where every sublist tail has a zero
// addend: for each sublist j it chases the encoded words from h[j],
// accumulating addends, and retires sum[j] = the sublist's vertex
// count (the addends plus one for the tail) and cur[j] = the tail
// reached. The addend stream is folded from the same word as the link,
// so each lane-step touches one cache line — with lanes of them in
// flight per worker.
func SumEnc(enc []uint64, h, sum, cur []int64, lo, hi, lanes int) {
	if hi <= lo {
		return
	}
	checkChunk(lo, hi, len(h), len(sum), len(cur))
	n := uint64(len(enc))
	eb := unsafe.SliceData(enc)
	hb, sb, cb := unsafe.SliceData(h), unsafe.SliceData(sum), unsafe.SliceData(cur)
	j, end := int64(lo), int64(hi)
	if lanes = clampLanes(lanes); lanes == 1 {
		for ; j < end; j++ {
			c := ld(hb, j)
			chk(c, n)
			var acc int64
			for {
				e := ld(eb, c)
				acc += int64(e & addendMask)
				nx := int64(e >> encShift)
				if nx == c {
					break
				}
				chk(nx, n)
				c = nx
			}
			// The tail's addend is zero, so acc counts the non-tail
			// vertices; the tail itself completes the length.
			st(sb, j, acc+1)
			st(cb, j, c)
		}
		return
	}
	var ln [MaxLanes]lane
	L := ln[:0]
	for len(L) < lanes && j < end {
		c := ld(hb, j)
		chk(c, n)
		L = append(L, lane{cur: c, slot: j})
		j++
	}
	for len(L) > 0 {
		for l := range L {
			la := &L[l]
			c := la.cur
			e := ld(eb, c)
			la.acc += int64(e & addendMask)
			nx := int64(e >> encShift)
			if nx != c {
				chk(nx, n)
				la.cur = nx
				continue
			}
			st(sb, la.slot, la.acc+1)
			st(cb, la.slot, c)
			if j < end {
				c2 := ld(hb, j)
				chk(c2, n)
				*la = lane{cur: c2, slot: j}
				j++
				continue
			}
			last := len(L) - 1
			L[l] = L[last]
			L = L[:last]
			break
		}
	}
}

// ExpandEnc is SumEnc's Phase 3 twin over sublists [lo, hi): it
// chases each sublist again, assigning consecutive ranks from its
// head's prefix pfx[j].
func ExpandEnc(out []int64, enc []uint64, h, pfx []int64, lo, hi, lanes int) {
	if hi <= lo {
		return
	}
	checkChunk(lo, hi, len(h), len(pfx), len(pfx))
	n := uint64(min(len(enc), len(out)))
	eb := unsafe.SliceData(enc)
	ob, hb, pb := unsafe.SliceData(out), unsafe.SliceData(h), unsafe.SliceData(pfx)
	j, end := int64(lo), int64(hi)
	if lanes = clampLanes(lanes); lanes == 1 {
		for ; j < end; j++ {
			c := ld(hb, j)
			chk(c, n)
			acc := ld(pb, j)
			for {
				st(ob, c, acc)
				e := ld(eb, c)
				acc += int64(e & addendMask)
				nx := int64(e >> encShift)
				if nx == c {
					break
				}
				chk(nx, n)
				c = nx
			}
		}
		return
	}
	var ln [MaxLanes]lane
	L := ln[:0]
	for len(L) < lanes && j < end {
		c := ld(hb, j)
		chk(c, n)
		L = append(L, lane{cur: c, acc: ld(pb, j)})
		j++
	}
	for len(L) > 0 {
		for l := range L {
			la := &L[l]
			c := la.cur
			st(ob, c, la.acc)
			e := ld(eb, c)
			la.acc += int64(e & addendMask)
			nx := int64(e >> encShift)
			if nx != c {
				chk(nx, n)
				la.cur = nx
				continue
			}
			if j < end {
				c2 := ld(hb, j)
				chk(c2, n)
				*la = lane{cur: c2, acc: ld(pb, j)}
				j++
				continue
			}
			last := len(L) - 1
			L[l] = L[last]
			L = L[:last]
			break
		}
	}
}

// SumAdd is the two-stream Phase 1 under integer addition over
// sublists [lo, hi), reading Next and values separately: sum[j] folds
// values along the sublist, tail included, and cur[j] retires the tail
// reached.
func SumAdd(next, values, h, sum, cur []int64, lo, hi, lanes int) {
	if hi <= lo {
		return
	}
	checkChunk(lo, hi, len(h), len(sum), len(cur))
	n := uint64(min(len(next), len(values)))
	nb, vb := unsafe.SliceData(next), unsafe.SliceData(values)
	hb, sb, cb := unsafe.SliceData(h), unsafe.SliceData(sum), unsafe.SliceData(cur)
	j, end := int64(lo), int64(hi)
	if lanes = clampLanes(lanes); lanes == 1 {
		for ; j < end; j++ {
			c := ld(hb, j)
			chk(c, n)
			var acc int64
			for {
				acc += ld(vb, c)
				nx := ld(nb, c)
				if nx == c {
					break
				}
				chk(nx, n)
				c = nx
			}
			st(sb, j, acc)
			st(cb, j, c)
		}
		return
	}
	var ln [MaxLanes]lane
	L := ln[:0]
	for len(L) < lanes && j < end {
		c := ld(hb, j)
		chk(c, n)
		L = append(L, lane{cur: c, slot: j})
		j++
	}
	for len(L) > 0 {
		for l := range L {
			la := &L[l]
			c := la.cur
			la.acc += ld(vb, c)
			nx := ld(nb, c)
			if nx != c {
				chk(nx, n)
				la.cur = nx
				continue
			}
			st(sb, la.slot, la.acc)
			st(cb, la.slot, c)
			if j < end {
				c2 := ld(hb, j)
				chk(c2, n)
				*la = lane{cur: c2, slot: j}
				j++
				continue
			}
			last := len(L) - 1
			L[l] = L[last]
			L = L[:last]
			break
		}
	}
}

// ExpandAdd is SumAdd's Phase 3 twin over sublists [lo, hi): each
// head's prefix pfx[j] is expanded across its sublist.
func ExpandAdd(out, next, values, h, pfx []int64, lo, hi, lanes int) {
	if hi <= lo {
		return
	}
	checkChunk(lo, hi, len(h), len(pfx), len(pfx))
	n := uint64(min(len(next), min(len(values), len(out))))
	nb, vb, ob := unsafe.SliceData(next), unsafe.SliceData(values), unsafe.SliceData(out)
	hb, pb := unsafe.SliceData(h), unsafe.SliceData(pfx)
	j, end := int64(lo), int64(hi)
	if lanes = clampLanes(lanes); lanes == 1 {
		for ; j < end; j++ {
			c := ld(hb, j)
			chk(c, n)
			acc := ld(pb, j)
			for {
				st(ob, c, acc)
				acc += ld(vb, c)
				nx := ld(nb, c)
				if nx == c {
					break
				}
				chk(nx, n)
				c = nx
			}
		}
		return
	}
	var ln [MaxLanes]lane
	L := ln[:0]
	for len(L) < lanes && j < end {
		c := ld(hb, j)
		chk(c, n)
		L = append(L, lane{cur: c, acc: ld(pb, j)})
		j++
	}
	for len(L) > 0 {
		for l := range L {
			la := &L[l]
			c := la.cur
			st(ob, c, la.acc)
			la.acc += ld(vb, c)
			nx := ld(nb, c)
			if nx != c {
				chk(nx, n)
				la.cur = nx
				continue
			}
			if j < end {
				c2 := ld(hb, j)
				chk(c2, n)
				*la = lane{cur: c2, acc: ld(pb, j)}
				j++
				continue
			}
			last := len(L) - 1
			L[l] = L[last]
			L = L[:last]
			break
		}
	}
}
