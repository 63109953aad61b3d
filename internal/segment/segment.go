package segment

import (
	"listrank/internal/core"
	"listrank/internal/par"
)

// In-memory orchestration: segments fan out across the worker pool in
// Phase 1 and Phase 3, with the assembly, stitch and boundary rank in
// between. This is the backend behind listrank.Segmented* and the
// Server's segmented requests; the out-of-core backend drives the
// same Prepare / Phase1 / Stitch / Phase2 / Phase3 steps with its own
// segment scheduling.

// RankInto writes every vertex's rank into dst. dst and next must
// have length plan.Len(); next is not mutated. Panics list.ErrNotList
// if the input is not a single chain, core.ErrCanceled if opt.Cancel
// trips.
func (sc *Scratch) RankInto(dst, next []int64, head int64, plan Plan, opt Options) {
	sc.run(dst, next, nil, head, plan, ModeRank, nil, 0, opt)
}

// ScanInto writes the exclusive integer-addition prefix of value into
// dst. dst, next and value must have length plan.Len().
func (sc *Scratch) ScanInto(dst, next, value []int64, head int64, plan Plan, opt Options) {
	if value == nil {
		panic("segment: nil value array")
	}
	sc.run(dst, next, value, head, plan, ModeScan, nil, 0, opt)
}

// ScanOpInto is ScanInto under an arbitrary associative operator with
// the given identity, folding in list order.
func (sc *Scratch) ScanOpInto(dst, next, value []int64, head int64, op func(a, b int64) int64, identity int64, plan Plan, opt Options) {
	if value == nil {
		panic("segment: nil value array")
	}
	if op == nil {
		panic("segment: nil operator")
	}
	sc.run(dst, next, value, head, plan, ModeOp, op, identity, opt)
}

func (sc *Scratch) run(dst, next, value []int64, head int64, plan Plan, mode Mode, op func(a, b int64) int64, identity int64, opt Options) {
	n := plan.Len()
	if len(dst) != n || len(next) != n || (value != nil && len(value) != n) {
		panic("segment: array lengths disagree with plan")
	}
	if n == 0 {
		return
	}
	defer sc.releaseCall()
	sc.Prepare(next, head, plan, opt)
	sc.Solve(dst, value, head, mode, op, identity, opt)
}

// Solve runs every step after Prepare — the Phase 1 run walks, the
// stitch, the Phase 2 boundary rank and the Phase 3 broadcast — over
// the plan and list Prepare was given, writing the result into dst
// (length plan.Len(); value is nil for ModeRank). A caller that
// drives Prepare itself, to account the arena's footprint in between,
// calls Solve next and Release when done.
func (sc *Scratch) Solve(dst, value []int64, head int64, mode Mode, op func(a, b int64) int64, identity int64, opt Options) {
	sc.fc.dst, sc.fc.value = dst, value
	sc.fc.mode, sc.fc.op, sc.fc.identity = mode, op, identity
	sc.fc.cancel = opt.Cancel

	plan := sc.fc.plan
	S := plan.Segments()
	p := par.Procs(opt.Procs, S)
	sc.fanPhase(p, S, taskPhase1, opt.Cancel)
	rh := sc.Stitch(plan, head)
	sc.Phase2(rh, mode, op, identity, opt)
	sc.fanPhase(p, S, taskPhase3, opt.Cancel)
}

// fanPhase dispatches one per-segment phase. Pool workers abandon
// their chunk on cancellation instead of unwinding the pool, so the
// orchestrator re-checks the token after the fan-out and raises the
// engine's usual cancellation panic.
func (sc *Scratch) fanPhase(p, S int, task func(c any, w, lo, hi int), cancel *core.Cancel) {
	if p == 1 {
		task(sc, 0, 0, S)
	} else {
		sc.fanout().ForChunksCtx(S, p, sc, task)
	}
	if cancel.Canceled() {
		panic(core.ErrCanceled)
	}
}

func taskPhase1(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	for s := lo; s < hi; s++ {
		st := sc.Sub(s, sc.fc.plan, sc.fc.mode, sc.fc.next, sc.fc.value, sc.fc.dst, sc.fc.op, sc.fc.identity)
		if !st.phase1(sc.fc.cancel) {
			return
		}
	}
}

func taskPhase3(c any, _, lo, hi int) {
	sc := c.(*Scratch)
	for s := lo; s < hi; s++ {
		st := sc.Sub(s, sc.fc.plan, sc.fc.mode, sc.fc.next, sc.fc.value, sc.fc.dst, sc.fc.op, sc.fc.identity)
		if !st.phase3(sc.fc.cancel) {
			return
		}
	}
}
