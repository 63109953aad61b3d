package kernel

import "unsafe"

// Record-then-stream kernels: the encoded engine's Phase 1 and Phase 3
// (internal/core, encoded.go). The vector-machine way to finish a list
// rank is to chase every sublist a second time in Phase 3, paying a
// second random gather and a random store per vertex. The SMP way
// (Helman and JáJá's sparse-ruling-set ranking, built on this paper's
// sublist approach) records during Phase 1 which sublist each vertex
// belongs to and where, and finishes with one streaming pass — the
// same shape segmented ranking uses one level up (broadcast.go).
//
// The engine's encoded word is enc[v] = next(v)<<32 | uint32(addend):
// addend 1 for a rank, the int32 value for a scan, and every sublist
// tail — splitter or global tail — a self-loop that keeps its addend.
// As a Phase 1 lane reads a word it overwrites it, in the cache line it
// just fetched, with a record:
//
//	rank: RecBit | j<<32 | offset   (offset = position within sublist j)
//	scan: RecBit | j<<32            (local prefix goes to out[v] instead)
//
// j < 2^31 and offset < 2^31, so the fields never reach the sentinel
// bit. The sentinel is the malformed-list guard, and it adds no branch:
// a lane that reaches an already-recorded vertex (a cycle, or two
// sublists sharing a vertex) decodes a link ≥ 2^31 and fails the
// followed-link chk it pays anyway, and the Phase 3 stream XORs the
// sentinel away before its sublist-index chk, so a vertex no lane
// reached fails the same way. A rank thus makes one random gather per
// vertex and no random store; a scan adds one random store (its local
// prefix), and Phase 3 is a sequential pass over enc and out with one
// gather into the much smaller prefix table.

// RecBit is the record sentinel: set in every word Phase 1 has
// recorded, clear in every encoded link word (links are < 2^31).
const RecBit = uint64(1) << 63

// RecordRank is the encoded rank engine's Phase 1 over sublists
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

// RecordScan is the encoded scan engine's Phase 1 over sublists
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

// checkStream validates a stream chunk [lo, hi) against the enc and
// out lengths once, so the loops can run on unchecked accesses.
func checkStream(lo, hi, lenc, lout int) {
	if lo < 0 || hi > lenc || hi > lout {
		panic("kernel: stream chunk out of range of the encoded array")
	}
}

// StreamRank is the encoded rank engine's Phase 3 over vertices
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

// StreamScan is the encoded scan engine's Phase 3 over vertices
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
