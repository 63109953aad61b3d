package core

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"listrank/internal/chaos"
)

// This file is the engine's cooperative cancellation machinery. The
// serving layer cannot afford a request that runs forever: one
// oversized or deadline-blown problem would occupy an engine (and its
// shard's worker pool) while every request queued behind it waits. But
// the engine's hot loops are exactly the loops the whole repository
// exists to keep lean — a per-link check would tax the steady state
// the paper's accounting is about. The compromise is bounded-cost
// polling: a Cancel is consulted at phase boundaries and between
// kernel chunk strips (about cancelBudget links of chasing per check,
// so the check amortizes to well under one instruction per link —
// EXPERIMENTS.md measures the overhead at ≤ the noise floor), and a
// run that observes cancellation abandons the problem at the next
// boundary by panicking with ErrCanceled, which the caller's
// containment (listrank.Server's per-ticket recover) converts into the
// ticket's error. The engine never writes the caller's list, so an
// abandoned run leaves nothing to undo but a partial dst.

// ErrCanceled is the panic value a canceled run unwinds with at its
// next cancellation checkpoint. It escapes only to callers that armed
// Options.Cancel — the serving layer — which recover it and classify
// the request as expired rather than poisoned.
var ErrCanceled = errors.New("core: run canceled")

// cancelBudget is the number of links a worker chases between
// cooperative cancellation checks in the Phase 1 chunk loops: a strip
// holds as many whole sublists as cancelBudget links make at the
// call's mean sublist length (stripLen). That bounds both the check
// overhead (one atomic load, occasionally a clock read, per strip) and
// the latency of noticing a cancellation — well under a millisecond of
// chasing — whatever the splitter count.
const cancelBudget = 1 << 15

// stripLen returns the number of sublists per Phase 1 strip of a call
// that cuts n vertices into k sublists: cancelBudget links' worth at
// the mean sublist length n/k, and at least one.
func stripLen(n, k int) int {
	return max(1, cancelBudget*k/n)
}

// streamStride is the number of vertices the engine's Phase 3 stream
// handles between cancellation checks. A streamed vertex costs a
// fraction of a chased link, so the stride is larger than
// cancelBudget links for about the same time.
const streamStride = 1 << 16

// Cancel is a reusable cooperative cancellation token: a trip flag, an
// optional wall-clock deadline and an optional context, polled
// together by the engine's bounded checkpoints. The zero value is an
// unarmed token; Arm it per run and Reset it between runs. A Cancel
// may be observed from many workers concurrently; Trip is safe from
// any goroutine. Allocation-free: the serving layer embeds one per
// ticket and recycles it with the ticket.
type Cancel struct {
	tripped atomic.Bool
	// deadline is unix nanoseconds; 0 means none. Written only by
	// Arm/Reset (before the run starts), read by any worker.
	deadline atomic.Int64
	// ctx is polled via Err; nil means none. Same write discipline as
	// deadline.
	ctx context.Context
}

// Arm configures the token for one run: a zero deadline means no
// deadline, a nil ctx means no context. Arm must happen-before the
// run observes the token (the serving layer arms at submission).
func (c *Cancel) Arm(ctx context.Context, deadline time.Time) {
	c.tripped.Store(false)
	if deadline.IsZero() {
		c.deadline.Store(0)
	} else {
		c.deadline.Store(deadline.UnixNano())
	}
	c.ctx = ctx
}

// Reset disarms the token and drops its context reference so a
// recycled holder never pins a finished request's context.
func (c *Cancel) Reset() {
	c.tripped.Store(false)
	c.deadline.Store(0)
	c.ctx = nil
}

// Trip requests cancellation; the run abandons the problem at its
// next checkpoint.
func (c *Cancel) Trip() { c.tripped.Store(true) }

// Canceled reports whether the run should stop: tripped, past the
// deadline, or the context is done. Nil receivers report false, so
// call sites need no guard.
func (c *Cancel) Canceled() bool {
	if c == nil {
		return false
	}
	if c.tripped.Load() {
		return true
	}
	if d := c.deadline.Load(); d != 0 && time.Now().UnixNano() >= d {
		return true
	}
	return c.ctx != nil && c.ctx.Err() != nil
}

// DeadlineExceeded reports whether the token's deadline (if any) has
// passed — the classifier the serving layer uses to pick between
// "expired" and "canceled" for an abandoned run.
func (c *Cancel) DeadlineExceeded() bool {
	if c == nil {
		return false
	}
	d := c.deadline.Load()
	return d != 0 && time.Now().UnixNano() >= d
}

// checkpoint is the phase-boundary cancellation (and chaos) hook: it
// runs on the orchestrating goroutine between the engine's phases and
// abandons a canceled run by panicking with ErrCanceled. point names
// the phase about to start, for the chaos harness's panic-at-phase-K
// injection.
func (o *Options) checkpoint(point string) {
	chaos.Point(point)
	if o.Cancel.Canceled() {
		panic(ErrCanceled)
	}
}
