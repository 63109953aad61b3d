package core

import (
	"listrank/internal/kernel"
	"listrank/internal/par"
	"listrank/internal/wyllie"
)

// Phase 2 solvers that work directly on the reduced list as it already
// exists in the virtual-processor table — v.sum linked by v.succ with
// head vp 0 — instead of materializing a list.List copy and then
// copying the scan back into v.pfx. The pointer-jumping solvers'
// double-buffered value/link arrays come from the Scratch arena, the
// links stay int32 (half the memory traffic of the generic wyllie
// package), and the results land in v.pfx with no intermediate
// allocation or copy.

// phase2 scans the reduced list into v.pfx with the configured
// algorithm, and records the choice in Stats. Phase2Auto is the
// paper's empirically determined switchover, shared by every engine
// path: serial when the reduced list is short, Wyllie's pointer
// jumping at moderate lengths, recursion with this same algorithm when
// it is long. A nil op selects the integer-addition engine (identity
// 0); otherwise every solver folds under op in list order. The
// recursive solver reuses v.sum as its value array with only the int32
// links widened into arena storage (see Scratch.reducedView).
func phase2(v *vps, k int, op func(a, b int64) int64, identity int64, opt Options, depth int, sc *Scratch) {
	alg := opt.Phase2
	if alg == Phase2Auto {
		switch {
		case k <= 2048:
			alg = Phase2Serial
		case k <= 1<<16:
			alg = Phase2Wyllie
		default:
			alg = Phase2Recursive
		}
	}
	if st := opt.Stats; st != nil {
		st.Phase2Len = k
		st.Phase2Used = alg
	}
	p := par.Procs(opt.Procs, k)
	switch alg {
	case Phase2Serial:
		if op == nil {
			phase2SerialAdd(v, k)
		} else {
			phase2SerialOp(v, k, op, identity)
		}
	case Phase2Wyllie:
		if op == nil {
			phase2WyllieAdd(v, k, p, sc)
		} else {
			phase2WyllieOp(v, k, p, op, identity, sc)
		}
	default: // Phase2Recursive
		rl := sc.reducedView(v, k, p)
		sub := opt
		sub.M = 0 // re-derive for the reduced length
		sub.Seed = opt.Seed + 0x9e3779b97f4a7c15
		sub.Stats = nil
		if opt.Stats != nil {
			// The recursion's own counts stay out of the caller's
			// Stats; only its depth is reported, and only if the
			// reduced list ran the engine rather than the serial walk.
			sub.Stats = new(Stats)
		}
		encoded(v.pfx, rl, rl.Value, op, identity, sub, depth+1, sc.childScratch())
		if opt.Stats != nil && sub.Stats.Depth > 0 {
			opt.Stats.Depth = sub.Stats.Depth
		}
	}
}

// phase2SerialAdd and phase2SerialOp walk the reduced list of k
// sublists from the head vp, writing each sublist's exclusive prefix.
// A walk that has not reached the tail sublist after k steps is going
// around a cycle, which only a malformed list produces; it panics
// rather than spin.
func phase2SerialAdd(v *vps, k int) {
	var acc int64
	j := int32(0)
	for steps := 1; ; steps++ {
		v.pfx[j] = acc
		acc += v.sum[j]
		s := v.succ[j]
		if s == j {
			return
		}
		if steps == k {
			panic("core: reduced list has no end (malformed list)")
		}
		j = s
	}
}

func phase2SerialOp(v *vps, k int, op func(a, b int64) int64, identity int64) {
	acc := identity
	j := int32(0)
	for steps := 1; ; steps++ {
		v.pfx[j] = acc
		acc = op(acc, v.sum[j])
		s := v.succ[j]
		if s == j {
			return
		}
		if steps == k {
			panic("core: reduced list has no end (malformed list)")
		}
		j = s
	}
}

// phase2WyllieAdd scans the reduced list under integer addition with
// Wyllie's pointer jumping, successor orientation: after jumping,
// val[j] is the sum over [j, tail), so the exclusive prefix of vp j is
// val[head] - val[j]. p must already be clamped to k.
func phase2WyllieAdd(v *vps, k, p int, sc *Scratch) {
	if k == 1 {
		v.pfx[0] = 0
		return
	}
	sc.jval = grow(sc.jval, k)
	sc.jval2 = grow(sc.jval2, k)
	sc.jlnk = grow(sc.jlnk, k)
	sc.jlnk2 = grow(sc.jlnk2, k)
	val, val2, lnk, lnk2 := sc.jval, sc.jval2, sc.jlnk, sc.jlnk2
	if p == 1 {
		initJumpAdd(val, lnk, v, 0, k)
	} else {
		// Stash copies: val/lnk are reassigned by the buffer swaps
		// below, and the task bodies must read the pre-swap views.
		sc.fc.val, sc.fc.lnk = val, lnk
		sc.fanout().ForChunksCtx(k, p, sc, taskInitJumpAdd)
	}
	rounds := wyllie.Rounds(k)
	if p == 1 {
		for r := 0; r < rounds; r++ {
			kernel.JumpAdd(val2, lnk2, val, lnk, 0, k)
			val, val2 = val2, val
			lnk, lnk2 = lnk2, lnk
		}
	} else {
		sc.fc.val, sc.fc.val2, sc.fc.lnk, sc.fc.lnk2 = val, val2, lnk, lnk2
		sc.fc.k, sc.fc.p, sc.fc.rounds = k, p, rounds
		sc.fanout().RunWorkersCtx(p, sc, taskJumpAdd)
		if rounds%2 == 1 {
			val = val2
		}
	}
	total := val[0] // head vp
	if p == 1 {
		for j := 0; j < k; j++ {
			v.pfx[j] = total - val[j]
		}
	} else {
		sc.fc.val, sc.fc.total = val, total
		sc.fanout().ForChunksCtx(k, p, sc, taskPfxSub)
	}
}

func taskInitJumpAdd(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	initJumpAdd(sc.fc.val, sc.fc.lnk, &sc.v, lo, hi)
}

// taskJumpAdd runs one worker's double-buffered jump rounds,
// barrier-synchronized like wyllie.jump; the round-synchronous workers
// stay parked on the pool's reusable barrier between rounds instead of
// being respawned per phase.
func taskJumpAdd(c any, w int, b *par.Barrier) {
	sc := c.(*Scratch)
	lv, lv2, ln, ln2 := sc.fc.val, sc.fc.val2, sc.fc.lnk, sc.fc.lnk2
	k, p, rounds := sc.fc.k, sc.fc.p, sc.fc.rounds
	lo, hi := par.Chunk(k, p, w)
	for r := 0; r < rounds; r++ {
		kernel.JumpAdd(lv2, ln2, lv, ln, lo, hi)
		b.Wait()
		lv, lv2 = lv2, lv
		ln, ln2 = ln2, ln
		// All workers must finish reading the old buffers before
		// anyone writes the next round into them.
		b.Wait()
	}
}

func taskPfxSub(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	val, total := sc.fc.val, sc.fc.total
	for j := lo; j < hi; j++ {
		sc.v.pfx[j] = total - val[j]
	}
}

// initJumpAdd seeds the successor-oriented jump buffers: sublist sums
// everywhere, the addition identity at the tail vp.
func initJumpAdd(val []int64, lnk []int32, v *vps, lo, hi int) {
	for j := lo; j < hi; j++ {
		lnk[j] = v.succ[j]
		if int(v.succ[j]) == j {
			val[j] = 0 // identity at the tail: val[j] sums [j, succ[j])
		} else {
			val[j] = v.sum[j]
		}
	}
}

// phase2WyllieOp is the generic-operator twin, predecessor
// orientation (subtraction is unavailable for an arbitrary monoid):
// links are reversed so each vp folds the values of strictly earlier
// sublists in list order, which keeps non-commutative operators
// correct. After jumping, val[j] is exactly the exclusive prefix.
func phase2WyllieOp(v *vps, k, p int, op func(a, b int64) int64, identity int64, sc *Scratch) {
	if k == 1 {
		v.pfx[0] = identity
		return
	}
	sc.jval = grow(sc.jval, k)
	sc.jval2 = grow(sc.jval2, k)
	sc.jlnk = grow(sc.jlnk, k)
	sc.jlnk2 = grow(sc.jlnk2, k)
	val, val2, prd, prd2 := sc.jval, sc.jval2, sc.jlnk, sc.jlnk2
	// Build predecessor links by scatter: each vp has exactly one
	// predecessor writing it, so the stores are disjoint. The head
	// (vp 0) is its own predecessor.
	prd[0] = 0
	if p == 1 {
		scatterPreds(prd, v, 0, k)
		initJumpOp(val, prd, v, identity, 0, k)
	} else {
		// Stash copies, as in phase2WyllieAdd: val/prd are reassigned
		// by the buffer swaps below.
		sc.fc.val, sc.fc.lnk, sc.fc.identity = val, prd, identity
		sc.fanout().ForChunksCtx(k, p, sc, taskScatterPreds)
		sc.fanout().ForChunksCtx(k, p, sc, taskInitJumpOp)
	}
	rounds := wyllie.Rounds(k)
	if p == 1 {
		for r := 0; r < rounds; r++ {
			kernel.JumpOp(val2, prd2, val, prd, op, 0, k) // earlier segment first
			val, val2 = val2, val
			prd, prd2 = prd2, prd
		}
	} else {
		sc.fc.val, sc.fc.val2, sc.fc.lnk, sc.fc.lnk2 = val, val2, prd, prd2
		sc.fc.op, sc.fc.k, sc.fc.p, sc.fc.rounds = op, k, p, rounds
		sc.fanout().RunWorkersCtx(p, sc, taskJumpOp)
		if rounds%2 == 1 {
			val = val2
		}
	}
	if p == 1 {
		copy(v.pfx[:k], val[:k])
	} else {
		sc.fc.val = val
		sc.fanout().ForChunksCtx(k, p, sc, taskPfxCopy)
	}
}

func taskScatterPreds(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	scatterPreds(sc.fc.lnk, &sc.v, lo, hi)
}

func taskInitJumpOp(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	initJumpOp(sc.fc.val, sc.fc.lnk, &sc.v, sc.fc.identity, lo, hi)
}

// taskJumpOp is taskJumpAdd parameterized by the operator,
// predecessor orientation.
func taskJumpOp(c any, w int, b *par.Barrier) {
	sc := c.(*Scratch)
	lv, lv2, lp, lp2 := sc.fc.val, sc.fc.val2, sc.fc.lnk, sc.fc.lnk2
	op, k, p, rounds := sc.fc.op, sc.fc.k, sc.fc.p, sc.fc.rounds
	lo, hi := par.Chunk(k, p, w)
	for r := 0; r < rounds; r++ {
		kernel.JumpOp(lv2, lp2, lv, lp, op, lo, hi)
		b.Wait()
		lv, lv2 = lv2, lv
		lp, lp2 = lp2, lp
		b.Wait()
	}
}

func taskPfxCopy(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	copy(sc.v.pfx[lo:hi], sc.fc.val[lo:hi])
}

func scatterPreds(prd []int32, v *vps, lo, hi int) {
	for j := lo; j < hi; j++ {
		s := v.succ[j]
		if int(s) != j {
			prd[s] = int32(j)
		}
	}
}

// initJumpOp seeds the predecessor-oriented jump buffers: each vp
// starts with its predecessor's sublist sum (the segment immediately
// before it), the identity at the head.
func initJumpOp(val []int64, prd []int32, v *vps, identity int64, lo, hi int) {
	for j := lo; j < hi; j++ {
		if j == 0 {
			val[j] = identity // head: empty preceding segment
		} else {
			val[j] = v.sum[prd[j]]
		}
	}
}
