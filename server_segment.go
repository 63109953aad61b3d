package listrank

import (
	"errors"
	"fmt"
	"time"

	"listrank/internal/core"
	"listrank/internal/govern"
	"listrank/internal/segment"
)

// Cross-shard segmented dispatch: the serving-layer backend of
// internal/segment. A bare-List request with Request.Segments > 1 (or
// one crossing ServerOptions.AutoSegment) is diverted at admission to
// an orchestrator goroutine that prepares the plan, fans each
// segment's Phase 1 walk across the shard fleet as an ordinary
// sub-request, ranks the reduced boundary list inline, fans the Phase
// 3 broadcasts the same way, and completes the parent ticket. Each
// sub-request routes by its window length, so a giant list's segments
// draw warm engines from the mid-size bins — the fleet's existing
// admission, deadline, cancellation and panic-containment machinery
// applies to every segment individually, and a fault in one segment
// fails only the parent that owns it.

// maxSegmented bounds concurrently live orchestrators; a parent
// arriving beyond the cap is served monolithically instead (graceful
// degradation, not a new failure mode).
const maxSegmented = 16

// maxAutoSegments caps how many segments auto-splitting creates; an
// explicit Request.Segments is clamped only by the list length.
const maxAutoSegments = 64

// resolveSegments turns a request's explicit segment count and the
// server's auto-split threshold into the effective S (≤ 1 means
// monolithic service).
func (s *Server) resolveSegments(explicit, n int) int {
	S := explicit
	if S == 0 && s.autoSegment > 0 && n > s.autoSegment {
		// Auto-segmentation is optional memory growth (an orchestrator
		// arena per parent); under governor pressure serve monolithic/
		// cold instead. An explicit Request.Segments is still honored —
		// the caller asked for the segmented result shape.
		if s.gov.Level() >= govern.LevelSoft {
			return 1
		}
		S = (n + s.autoSegment - 1) / s.autoSegment
		if S > maxAutoSegments {
			S = maxAutoSegments
		}
	}
	if S > n {
		S = n
	}
	return S
}

// segTask is the payload of one segment sub-request: which phase to
// run and the segment's self-contained SubTask. The windows alias the
// parent's Dst and the orchestrator's Scratch, which stay alive until
// every sub-request has completed.
type segTask struct {
	phase int // 1 or 3
	st    segment.SubTask
}

// run executes the sub-request's phase on the serving goroutine; it
// is called under shard.run's finish containment (or inline under the
// orchestrator's), so structural panics and cancellation unwind into
// the owning ticket.
func (sg *segTask) run(t *Ticket) {
	if sg.phase == 1 {
		sg.st.Phase1(&t.cancel)
	} else {
		sg.st.Phase3(&t.cancel)
	}
}

// serveSegmented is the orchestrator: it owns one diverted parent
// ticket from admission to completion.
func (s *Server) serveSegmented(t *Ticket, S int) {
	defer s.segWG.Done()
	defer s.segActive.Add(-1)
	defer s.finishDetached(t)
	req := &t.req
	l := req.List
	n := l.Len()
	mode := segment.ModeRank
	switch req.Op {
	case OpScan:
		mode = segment.ModeScan
	case OpScanOp:
		mode = segment.ModeOp
	}
	if mode != segment.ModeRank && len(l.Value) != n {
		t.err = fmt.Errorf("%w: %d values for %d vertices", ErrBadRequest, len(l.Value), n)
		return
	}
	if req.Dst == nil {
		req.Dst = make([]int64, n)
	}
	sc := getSegScratch()
	defer putSegScratch(sc)
	defer sc.Release()
	// The orchestrator's own fan-outs run on the server's pool, not the
	// process-wide shared one, so no worker outlives Close.
	sc.SetPool(s.segPool)
	defer sc.SetPool(nil)
	// Account the orchestrator's arena footprint as ClassSegment for
	// the parent's lifetime, re-measured after each growth point, so
	// the governor sees segmented traffic's real memory (the pressure
	// that in turn gates new auto-segmentation).
	var acct int64
	defer func() { s.gov.Adjust(govern.ClassSegment, -acct) }()
	account := func() {
		fp := sc.Footprint()
		s.gov.Adjust(govern.ClassSegment, fp-acct)
		acct = fp
	}
	plan := sc.EvenPlan(n, S)
	opt := segment.Options{Procs: s.procs, Seed: req.Opt.Seed, Cancel: &t.cancel}
	// Prepare validates links and assembles the boundary nodes; a
	// malformed list panics segment.ErrMalformed here or in a
	// sub-request's walk, and finishDetached contains either into the
	// parent's ErrPanic.
	sc.Prepare(l.Next, l.Head, plan, opt)
	account()
	if err := s.fanSegments(t, sc, plan, mode, 1); err != nil {
		t.err = err
		return
	}
	if t.cancel.Canceled() {
		panic(core.ErrCanceled)
	}
	rhead := sc.Stitch(plan, l.Head)
	sc.Phase2(rhead, mode, req.ScanOp, req.Identity, opt)
	account()
	if err := s.fanSegments(t, sc, plan, mode, 3); err != nil {
		t.err = err
	}
}

// fanSegments runs one phase across every segment: each segment is
// submitted as its own sub-request carrying the parent's deadline and
// context; a segment the fleet will not admit (backpressure that
// never cleared, or a server closing mid-flight) is run inline on the
// orchestrator so an admitted parent still completes. Every admitted
// sub-ticket is waited exactly once before returning — nothing is
// stranded even when the phase fails — and the worst sub-error is
// returned with faults ranked above expiries.
func (s *Server) fanSegments(t *Ticket, sc *segment.Scratch, plan segment.Plan, mode segment.Mode, phase int) error {
	req := &t.req
	var value []int64
	if mode != segment.ModeRank {
		value = req.List.Value
	}
	S := plan.Segments()
	tasks := make([]segTask, S)
	subs := make([]*Ticket, S)
	inline := make([]bool, S)
	// Admission window: the parent's remaining deadline budget, or a
	// generous default for deadline-free parents.
	wait := 10 * time.Second
	if !req.Deadline.IsZero() {
		if rem := time.Until(req.Deadline); rem < wait {
			wait = max(rem, 0)
		}
	}
	var panicErr, expireErr, otherErr error
	for i := 0; i < S; i++ {
		tasks[i].phase = phase
		tasks[i].st = sc.Sub(i, plan, mode, req.List.Next, value, req.Dst, req.ScanOp, req.Identity)
		sub := Request{seg: &tasks[i], Deadline: req.Deadline, Ctx: req.Ctx}
		tk, err := s.SubmitTimeout(sub, wait)
		switch {
		case err == nil:
			s.segSubmits.Add(1)
			subs[i] = tk
		case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, ErrCanceled):
			// The failed admission was still a full submission, counted
			// in the expired bucket — it must count as a sub-request or
			// SegSubmits stops reconciling the books (the wire client
			// asserts surplus(served+expired+poisoned) == SegSubmits;
			// backpressure-rejected attempts land in rejected, which is
			// only lower-bounded, so they stay uncounted).
			s.segSubmits.Add(1)
			if expireErr == nil {
				expireErr = err
			}
		case errors.Is(err, ErrServerClosed), errors.Is(err, ErrBackpressure):
			inline[i] = true
		default:
			if otherErr == nil {
				otherErr = err
			}
		}
	}
	for _, tk := range subs {
		if tk == nil {
			continue
		}
		_, err := tk.Wait()
		switch {
		case err == nil:
		case errors.Is(err, ErrPanic):
			if panicErr == nil {
				panicErr = err
			}
		case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, ErrCanceled):
			if expireErr == nil {
				expireErr = err
			}
		default:
			if otherErr == nil {
				otherErr = err
			}
		}
	}
	if panicErr == nil && expireErr == nil && otherErr == nil {
		// Inline catch-up only when the phase is otherwise clean; its
		// panics unwind to finishDetached like any other.
		for i := range tasks {
			if inline[i] {
				tasks[i].run(t)
			}
		}
		return nil
	}
	if panicErr != nil {
		return panicErr
	}
	if expireErr != nil {
		return expireErr
	}
	return otherErr
}

// finishDetached completes a parent ticket served outside any shard:
// panic containment and failure-domain classification mirror
// shard.finish, with the outcome counted into the server-level
// detached buckets so the ServerStats identity holds.
func (s *Server) finishDetached(t *Ticket) {
	if r := recover(); r != nil {
		if err, ok := r.(error); ok && errors.Is(err, core.ErrCanceled) {
			if t.cancel.DeadlineExceeded() {
				t.err = ErrDeadlineExceeded
			} else {
				t.err = ErrCanceled
			}
		} else {
			t.err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}
	switch {
	case t.err == nil:
		s.segServed.Add(1)
	case errors.Is(t.err, ErrDeadlineExceeded), errors.Is(t.err, ErrCanceled):
		s.segExpired.Add(1)
	case errors.Is(t.err, ErrBadRequest), errors.Is(t.err, ErrServerClosed), errors.Is(t.err, ErrBackpressure):
		s.rejected.Add(1)
	default:
		s.segPoisoned.Add(1)
	}
	t.done <- struct{}{}
}
