package kernel

import "unsafe"

// Record-then-stream kernels: the sublist engine's Phase 1 and Phase 3
// (internal/core, encoded.go). The vector-machine way to finish a list
// rank is to chase every sublist a second time in Phase 3, paying a
// second random gather and a random store per vertex. The SMP way
// (Helman and JáJá's sparse-ruling-set ranking, built on this paper's
// sublist approach) records during Phase 1 which sublist each vertex
// belongs to and where, and finishes with one streaming pass — the
// same shape segmented ranking uses one level up (broadcast.go).
//
// The engine derives its words from the list in one of two layouts,
// and every sublist tail — splitter or global tail — is a self-loop in
// the derived words that keeps its value:
//
//	narrow: enc[v] = next(v)<<32 | uint32(addend)   (§3's encoded word)
//	wide:   w[2v], w[2v+1] = next(v), value(v)
//
// The narrow word carries addend 1 for a rank and the int32 value for
// an addition scan; the wide pair carries any int64 value under any
// associative operator. As a Phase 1 lane reads a vertex's words it
// overwrites them, in the cache line it just fetched, with a record:
//
//	narrow rank: RecBit | j<<32 | offset   (offset = position within sublist j)
//	narrow scan: RecBit | j<<32            (local prefix goes to out[v] instead)
//	wide:        RecBit | j, local prefix  (the exclusive fold under op)
//
// j < 2^31 and offset < 2^31 in the narrow word, so the fields never
// reach the sentinel bit. The sentinel is the malformed-list guard, and
// it adds no branch: a lane that reaches an already-recorded vertex (a
// cycle, or two sublists sharing a vertex) decodes a link ≥ 2^31 and
// fails the followed-link chk it pays anyway, and the Phase 3 stream
// XORs the sentinel away before its sublist-index chk, so a vertex no
// lane reached fails the same way. A narrow rank thus makes one random
// gather per vertex and no random store; a narrow scan adds one random
// store (its local prefix); a wide lane keeps its local prefix in the
// line it fetched. Phase 3 is a sequential pass over the words and out
// with one gather into the much smaller prefix table.
// RecBit is the record sentinel: set in every word Phase 1 has
// recorded, clear in every encoded link word (links are < 2^31).
const RecBit = uint64(1) << 63

// RecordRank is the narrow rank layout's Phase 1 over sublists
// [lo, hi): each sublist j is chased from h[j], every word it reads is
// overwritten with its record (j and the vertex's offset within the
// sublist), and sum[j] = the sublist's length, cur[j] = the tail
// reached are retired. A revisited vertex panics (badIndex).
func RecordRank(enc []uint64, h, sum, cur []int64, lo, hi, lanes int) {
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
			tag := RecBit | uint64(j)<<encShift
			var off int64
			for {
				e := ld(eb, c)
				st(eb, c, tag|uint64(off))
				off++
				nx := int64(e >> encShift)
				if nx == c {
					break
				}
				chk(nx, n)
				c = nx
			}
			st(sb, j, off)
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
			st(eb, c, RecBit|uint64(la.slot)<<encShift|uint64(la.acc))
			la.acc++
			nx := int64(e >> encShift)
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

// RecordScan is the narrow scan layout's Phase 1 over sublists
// [lo, hi): each sublist j is chased from h[j], every vertex v gets
// out[v] = the exclusive sum of the addends before it in the sublist
// and its word is overwritten with its record (j only), and sum[j] =
// the sublist's total, cur[j] = the tail reached are retired. The
// addends are read back sign-extended. A revisited vertex panics
// (badIndex).
func RecordScan(out []int64, enc []uint64, h, sum, cur []int64, lo, hi, lanes int) {
	if hi <= lo {
		return
	}
	checkChunk(lo, hi, len(h), len(sum), len(cur))
	n := uint64(min(len(enc), len(out)))
	eb, ob := unsafe.SliceData(enc), unsafe.SliceData(out)
	hb, sb, cb := unsafe.SliceData(h), unsafe.SliceData(sum), unsafe.SliceData(cur)
	j, end := int64(lo), int64(hi)
	if lanes = clampLanes(lanes); lanes == 1 {
		for ; j < end; j++ {
			c := ld(hb, j)
			chk(c, n)
			tag := RecBit | uint64(j)<<encShift
			var acc int64
			for {
				e := ld(eb, c)
				st(eb, c, tag)
				st(ob, c, acc)
				acc += int64(int32(e))
				nx := int64(e >> encShift)
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
			e := ld(eb, c)
			st(eb, c, RecBit|uint64(la.slot)<<encShift)
			st(ob, c, la.acc)
			la.acc += int64(int32(e))
			nx := int64(e >> encShift)
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

// checkStream validates a stream chunk [lo, hi) against the number of
// vertices the words hold and out's length once, so the loops can run
// on unchecked accesses.
func checkStream(lo, hi, lenc, lout int) {
	if lo < 0 || hi > lenc || hi > lout {
		panic("kernel: stream chunk out of range of the encoded array")
	}
}

// StreamRank is the narrow rank layout's Phase 3 over vertices
// [lo, hi): out[v] = pfx[j] + offset for v's record (j, offset). It
// reads enc and writes out in memory order; the only data-dependent
// access is the gather from pfx, whose index is checked after the
// sentinel is XORed away, so an unrecorded vertex panics (badIndex).
func StreamRank(out []int64, enc []uint64, pfx []int64, lo, hi int) {
	if hi <= lo {
		return
	}
	checkStream(lo, hi, len(enc), len(out))
	k := uint64(len(pfx))
	eb, ob, pb := unsafe.SliceData(enc), unsafe.SliceData(out), unsafe.SliceData(pfx)
	for v := int64(lo); v < int64(hi); v++ {
		e := ld(eb, v) ^ RecBit
		j := int64(e >> encShift)
		chk(j, k)
		st(ob, v, ld(pb, j)+int64(uint32(e)))
	}
}

// StreamScan is the narrow scan layout's Phase 3 over vertices
// [lo, hi): out[v] += pfx[j] for v's record j, turning the local
// prefix RecordScan left in out[v] into the global one. Unrecorded
// vertices panic exactly as in StreamRank.
func StreamScan(out []int64, enc []uint64, pfx []int64, lo, hi int) {
	if hi <= lo {
		return
	}
	checkStream(lo, hi, len(enc), len(out))
	k := uint64(len(pfx))
	eb, ob, pb := unsafe.SliceData(enc), unsafe.SliceData(out), unsafe.SliceData(pfx)
	for v := int64(lo); v < int64(hi); v++ {
		j := int64((ld(eb, v) ^ RecBit) >> encShift)
		chk(j, k)
		st(ob, v, ld(ob, v)+ld(pb, j))
	}
}

// RecordOp is the wide layout's Phase 1 over sublists [lo, hi) under
// the associative operator op with the given identity: each sublist j
// is chased from h[j], every vertex's pair is overwritten with its
// record (RecBit | j, and the fold of the values before it in the
// sublist, starting from identity), and sum[j] = the fold of the whole
// sublist, cur[j] = the tail reached are retired. A nil op is integer
// addition, folded inline: an indirect call forces the lane state
// through the stack on every link. The fold order is the serial walk's
// at every lane width, so non-commutative operators are safe; the
// indirect call per link costs the same in every lane, and the loads
// of the other lanes still overlap it. A revisited vertex panics
// (badIndex).
func RecordOp(w []uint64, h, sum, cur []int64, op func(a, b int64) int64, identity int64, lo, hi, lanes int) {
	if hi <= lo {
		return
	}
	checkChunk(lo, hi, len(h), len(sum), len(cur))
	n := uint64(len(w) / 2)
	wb := unsafe.SliceData(w)
	hb, sb, cb := unsafe.SliceData(h), unsafe.SliceData(sum), unsafe.SliceData(cur)
	j, end := int64(lo), int64(hi)
	if lanes = clampLanes(lanes); lanes == 1 {
		for ; j < end; j++ {
			c := ld(hb, j)
			chk(c, n)
			tag := RecBit | uint64(j)
			acc := identity
			for {
				nx, x := int64(ld(wb, 2*c)), int64(ld(wb, 2*c+1))
				st(wb, 2*c, tag)
				st(wb, 2*c+1, uint64(acc))
				if op == nil {
					acc += x
				} else {
					acc = op(acc, x)
				}
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
		L = append(L, lane{cur: c, acc: identity, slot: j})
		j++
	}
	for len(L) > 0 {
		for l := range L {
			la := &L[l]
			c := la.cur
			nx, x := int64(ld(wb, 2*c)), int64(ld(wb, 2*c+1))
			st(wb, 2*c, RecBit|uint64(la.slot))
			st(wb, 2*c+1, uint64(la.acc))
			if op == nil {
				la.acc += x
			} else {
				la.acc = op(la.acc, x)
			}
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
				*la = lane{cur: c2, acc: identity, slot: j}
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

// StreamOp is the wide layout's Phase 3 over vertices [lo, hi):
// out[v] = op(pfx[j], local) for v's record (j, local), or
// pfx[j] + local for a nil op. The sublist's prefix folds first, so
// non-commutative operators are safe. Unrecorded vertices panic
// exactly as in StreamRank.
func StreamOp(out []int64, w []uint64, pfx []int64, op func(a, b int64) int64, lo, hi int) {
	if hi <= lo {
		return
	}
	checkStream(lo, hi, len(w)/2, len(out))
	k := uint64(len(pfx))
	wb, ob, pb := unsafe.SliceData(w), unsafe.SliceData(out), unsafe.SliceData(pfx)
	for v := int64(lo); v < int64(hi); v++ {
		j := int64(ld(wb, 2*v) ^ RecBit)
		chk(j, k)
		if op == nil {
			st(ob, v, ld(pb, j)+int64(ld(wb, 2*v+1)))
		} else {
			st(ob, v, op(ld(pb, j), int64(ld(wb, 2*v+1))))
		}
	}
}
