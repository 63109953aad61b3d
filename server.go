package listrank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"listrank/internal/core"
	"listrank/internal/fleet"
	"listrank/internal/govern"
)

// This file is the serving layer: a long-lived, sharded fleet of warm
// engines behind an asynchronous Submit/Wait front. The paper's
// premise is serving-shaped — a machine owns a fixed set of vector
// resources and keeps them saturated across a stream of problems of
// wildly varying size, re-acquiring nothing per problem (§5, Table
// II) — and Server lifts that premise from one engine to a fleet:
//
//   - Sharding is by size bin, so a 1k-element request draws from
//     engines warmed on 1k-element problems instead of borrowing (or
//     grow-thrashing) an arena warmed on 10M elements. Each shard owns
//     a worker pool sized to its share of the hardware and a set of
//     warm engines, one per pool worker.
//   - Small requests coalesce: a shard's dispatcher takes everything
//     that queued while it was busy in one hand-off and serves the
//     batch with across-request parallelism (each pool worker runs its
//     share of requests inline on its own engine) — the RankAll/
//     ScanAll schedule, applied continuously to live traffic. A lone
//     request on a shard is served with within-list parallelism
//     instead, so latency never waits on batch formation.
//   - Admission is bounded: each shard's queue has fixed capacity, and
//     ServerOptions selects what a full queue does — park the
//     submitter (backpressure propagates to the producer) or reject
//     immediately (shed rather than queue).
//   - Close is deterministic, mirroring WorkerPool.Close: it stops
//     admission, drains every request admitted before Close, and
//     returns only after the dispatchers and their worker pools have
//     terminated.
//
// Steady-state contract, one level above the engines': a warm server
// serving a steady trace performs zero heap allocations per request
// after admission — and the admission path itself (ticket checkout,
// queue hand-off, completion, ticket recycle) is also allocation-free
// once warm (TestFleetZeroAllocSteadyState).

// Op selects the operation a Request asks for.
type Op int

const (
	// OpRank asks for the rank of every vertex (see Rank).
	OpRank Op = iota
	// OpScan asks for the exclusive integer-addition scan (see Scan).
	OpScan
	// OpScanOp asks for the exclusive scan under the request's ScanOp
	// operator and Identity (see ScanOpWith). Requests with OpScanOp
	// must set ScanOp.
	OpScanOp
)

// Request is one unit of work submitted to a Server.
type Request struct {
	// Op selects rank, scan, or generic-operator scan.
	Op Op
	// List is the problem; exactly one of List and Handle must be
	// non-nil. The serving engines only read the list, so one list may
	// be shared by any number of requests in flight at the same time,
	// but the caller must not mutate it until Wait returns. It is never
	// retained past completion.
	List *List
	// Handle names a list registered with this server (Server.Register)
	// in place of List: repeat traffic on the same handle becomes
	// eligible for the reorder cache, after which rank requests are
	// served by copying the cached rank table and scans by the
	// streaming sequential kernels — no link is chased at all. A
	// handle registered with a different server fails with
	// ErrBadRequest.
	Handle *Handle
	// Segments, when > 1, asks for segmented service: the list is cut
	// into that many contiguous segments, each segment's run walk and
	// offset broadcast served as its own sub-request on the shard
	// fleet, with the reduced boundary list ranked in between (see
	// internal/segment and DESIGN.md, "Ranking beyond one arena").
	// 0 and 1 serve monolithically; negative values, or Segments with
	// Handle, fail with ErrBadRequest. Segmented requests never mutate
	// the list, validate its structure as a side effect, and ignore
	// Opt.Algorithm; they are off the zero-allocation steady-state
	// contract, and one that races Close may be finished inline by its
	// orchestrator rather than on the fleet.
	Segments int
	// ScanOp and Identity define the OpScanOp operator: an associative
	// op folded in list order from identity (non-commutative operators
	// are safe). Ignored for other ops; a nil ScanOp fails OpScanOp
	// requests with ErrBadRequest. OpScanOp is an in-process API only —
	// functions do not cross the wire protocol.
	ScanOp   func(a, b int64) int64
	Identity int64
	// Dst receives the result and must have length List.Len(). A nil
	// Dst asks the server to allocate the result (off the
	// zero-allocation contract); Ticket.Wait returns it either way.
	Dst []int64
	// Opt tunes the run. The server owns parallelism — each shard
	// dispatches on its own worker pool — so Opt.Procs is ignored;
	// Algorithm, Seed, M and LaneWidth are honored per request.
	Opt Options
	// Deadline, if non-zero, is the wall-clock instant after which the
	// request must not keep running: a request that expires while
	// queued fails with ErrDeadlineExceeded without ever running on an
	// engine, and one that expires mid-run is cooperatively abandoned
	// at the engine's next cancellation checkpoint (phase boundary or
	// kernel chunk strip — tens of microseconds of chasing, not the
	// rest of the problem). The deadline applies to the default Sublist
	// algorithm; the reference algorithms do not poll it.
	Deadline time.Time
	// Ctx, if non-nil, cancels the request when it is done: the run is
	// abandoned exactly as for Deadline, and Wait reports ErrCanceled.
	// The context is polled, not watched — no goroutine is spawned per
	// request — and is released at completion.
	Ctx context.Context

	// seg marks a segment sub-request spawned by the segmented
	// orchestrator (see server_segment.go); never set by callers.
	seg *segTask
}

// Errors reported by Ticket.Wait.
var (
	// ErrServerClosed reports a submission to a closed server (or one
	// that closed while the submitter was parked on a full queue).
	ErrServerClosed = errors.New("listrank: server closed")
	// ErrBackpressure reports a rejected submission: the target
	// shard's admission queue was full under the Reject policy.
	ErrBackpressure = errors.New("listrank: admission queue full")
	// ErrBadRequest reports a malformed request: a nil List, a Dst
	// whose length does not match the list, or (with
	// ServerOptions.ValidateInputs) a list failing the cheap structural
	// checks.
	ErrBadRequest = errors.New("listrank: malformed request")
	// ErrDeadlineExceeded reports a request whose Deadline passed —
	// while queued (it never ran) or mid-run (it was cooperatively
	// abandoned).
	ErrDeadlineExceeded = errors.New("listrank: request deadline exceeded")
	// ErrCanceled reports a request withdrawn by Ticket.Cancel or its
	// Request.Ctx before completing.
	ErrCanceled = errors.New("listrank: request canceled")
	// ErrPanic is the wrapper for a panic contained while serving a
	// request — a poisoned input (e.g. an out-of-range link caught by
	// the kernel guard) whose fault was confined to its own ticket.
	// Wait's error wraps ErrPanic and preserves the original panic
	// message; errors.Is(err, ErrPanic) classifies it.
	ErrPanic = errors.New("listrank: panic while serving request")
	// ErrShed reports a request fast-rejected at admission by adaptive
	// load shedding: either the target shard's estimated queue wait
	// already exceeded the request's Deadline (ServerOptions.Shed), or
	// the memory governor read hard pressure. The request never ran
	// and never occupied a queue slot; the caller should back off
	// before retrying (the daemon maps it to 429 + Retry-After).
	ErrShed = errors.New("listrank: request shed at admission")
)

// Ticket is the future returned by Submit. Exactly one Wait call must
// be made per ticket; Wait recycles the ticket, so a ticket must not
// be stored or touched after Wait returns.
type Ticket struct {
	srv  *Server
	req  Request
	err  error
	done chan struct{} // capacity 1, reused across recycles
	// cancel is the request's cooperative cancellation token, armed at
	// submission from Deadline/Ctx and recycled with the ticket.
	cancel core.Cancel
	// elems is the ticket's element count while it occupies a shard
	// queue — the unit of the shard's backlog gauge for shed-wait
	// estimation. Set just before the queue hand-off, zeroed by
	// whichever completion path drains it (exactly one does).
	elems int
}

// Cancel asks the server to abandon the request: if it is still
// queued it will fail with ErrCanceled without running; if it is
// mid-run the engine abandons it at its next cancellation
// checkpoint. Cancel is safe to call at any time
// between Submit and Wait, from any goroutine, and does not replace
// Wait — exactly one Wait call is still required.
func (t *Ticket) Cancel() { t.cancel.Trip() }

// Wait blocks until the request completes and returns the result
// slice (the request's Dst, or the server-allocated result if Dst was
// nil) and the request's error: nil on success; ErrServerClosed /
// ErrBackpressure / ErrBadRequest if the request never ran;
// ErrDeadlineExceeded or ErrCanceled if it was withdrawn (queued or
// mid-run); an ErrPanic-wrapped
// error if a fault was contained while serving it.
func (t *Ticket) Wait() ([]int64, error) {
	<-t.done
	dst, err := t.req.Dst, t.err
	s := t.srv
	t.req = Request{} // drop references before the ticket is recycled
	t.err = nil
	t.cancel.Reset() // disarm and drop the context reference
	s.tickets.Put(t)
	return dst, err
}

// ServerOptions configures NewServer. The zero value serves on all
// available CPUs with the default size bins, blocking admission and
// default queue depths.
type ServerOptions struct {
	// Procs is the worker budget. The bounded (coalescing) bins divide
	// it among themselves (larger bins get the remainder), while the
	// unbounded top bin's pool gets the full budget: its requests run
	// one at a time with within-list parallelism, and a big problem
	// deserves the whole machine when the small-bin shards are idle —
	// when they are not, the runtime multiplexes benignly (parked
	// pool workers cost nothing). 0 means GOMAXPROCS. With fewer
	// procs than bounded bins every shard still gets one worker.
	Procs int
	// BinBounds are ascending size-bin upper bounds; a request routes
	// to the first bin whose bound is ≥ its list length, and a final
	// unbounded bin is always appended. nil selects the defaults,
	// {4096, 262144} — three bins splitting the coalescing regime from
	// the within-list-parallelism regime.
	BinBounds []int
	// QueueDepth is each shard's admission-queue capacity (default
	// 1024). A full queue applies the backpressure policy.
	QueueDepth int
	// Reject selects reject-on-full backpressure: submissions to a
	// full shard fail immediately with ErrBackpressure instead of
	// parking the submitter until space frees up.
	Reject bool
	// MaxCoalesce bounds how many requests one dispatch packs
	// (default 64).
	MaxCoalesce int
	// AutoSegment, when positive, serves any bare-List request longer
	// than this threshold segmented — cut into ceil(n/AutoSegment)
	// contiguous segments (at most 64) fanned across the shard fleet
	// as sub-requests, exactly as if Request.Segments had been set.
	// Handle requests are never auto-split. 0 disables
	// auto-segmentation.
	AutoSegment int
	// WarmSizes pre-grows the fleet for problems of these sizes
	// before the server starts, exactly as Server.Warm would.
	WarmSizes []int
	// ReorderAfter is the serve count on one handle (within one
	// version) after which its shard builds a reordered layout, making
	// subsequent requests on the handle memcpy/streaming-fast (see
	// Handle and DESIGN.md, "The reorder cache"). 0 selects the default
	// of 2 — the second serve of repeat traffic pays the amortized
	// re-layout, the third is warm; negative disables the reorder
	// cache entirely.
	ReorderAfter int
	// ReorderBudgetBytes bounds the total bytes of cached reordered
	// layouts across the server (24 bytes per element per cached
	// handle), split evenly among the shards, each evicting
	// least-recently-used layouts to stay under its share. 0 selects
	// the default of 256 MiB; negative disables the reorder cache.
	ReorderBudgetBytes int64
	// Shed enables deadline-aware adaptive admission: each shard keeps
	// an EWMA of serve-time ns per element and an element backlog
	// gauge, and a request with a Deadline whose estimated queue wait
	// already exceeds it is fast-rejected with ErrShed in microseconds
	// instead of expiring at p99 after consuming a queue slot.
	// Requests without a Deadline are never deadline-shed. Independent
	// of this flag, a Governor reading hard memory pressure sheds all
	// new non-trivial load (see Governor).
	Shed bool
	// Governor is the process-wide memory governor this server reads
	// at admission and reports reorder/segment footprints to. nil
	// selects the shared ProcessGovernor(), which is unlimited until
	// configured — so the zero value changes nothing. Under
	// GovernSoft the server stops building new reorder layouts and
	// stops auto-segmenting (explicit Request.Segments is still
	// honored); under GovernHard it sheds new load with ErrShed.
	Governor *Governor
	// ValidateInputs runs a cheap structural check on every list
	// before serving it — every link in range, exactly one tail
	// self-loop, head in range — failing the request with ErrBadRequest
	// instead of relying on fault containment. The check is one
	// memory-sequential parallel pass over Next (a small fraction of a
	// rank's 2n dependent loads); it catches the out-of-range
	// corruption class but, by design, not in-range structural damage
	// such as disjoint cycles — full verification is list ranking
	// itself. See DESIGN.md, "Failure domains".
	ValidateInputs bool
}

// ServerStats is a snapshot of a server's counters. Every submission
// lands in exactly one of five buckets, so
//
//	Submitted = Served + Rejected + Expired + Poisoned + Shed
//
// holds at every quiescent point (and the chaos soak tests enforce it
// under mixed fault traffic).
type ServerStats struct {
	// Submitted counts Submit calls; Rejected counts the ones that
	// never ran (backpressure, closed server, malformed request —
	// including ValidateInputs failures).
	Submitted, Rejected int64
	// Served counts successfully completed requests (including
	// zero-length requests completed trivially at admission);
	// Dispatches counts engine dispatches (a coalesced batch is one
	// dispatch); Coalesced counts requests served as part of a
	// multi-request dispatch.
	Served, Dispatches, Coalesced int64
	// Expired counts requests withdrawn before completing: deadline
	// expiry (queued or mid-run) and Ticket.Cancel / context
	// cancellation.
	Expired int64
	// Poisoned counts requests whose serve panicked — the fault was
	// contained to the request's own ticket (ErrPanic).
	Poisoned int64
	// Shed counts requests fast-rejected at admission by adaptive load
	// shedding (ErrShed): deadline-infeasible under the current
	// backlog, or hard memory pressure. Shed requests never ran and
	// never occupied a queue slot.
	Shed int64
	// Segmented counts requests served by segmented (cross-shard)
	// dispatch — each such parent also lands in exactly one of the four
	// identity buckets above — and SegSubmits counts the per-segment
	// sub-requests those parents spawned, each a full submission of its
	// own (so they appear in Submitted and the per-bin counters too).
	Segmented, SegSubmits int64
	// BinServed counts successfully served requests per size bin
	// (trivial zero-length completions appear in no bin).
	BinServed []int64
	// BinQueued is the instantaneous admission-queue depth per size
	// bin at snapshot time — a gauge, not a counter, exposed so the
	// serving daemon's /metrics can show where backpressure is
	// building before it turns into rejections.
	BinQueued []int64
	// Reorder-cache counters (see Handle). Every handle-request serve
	// is a hit (served from a cached layout by the sequential kernels)
	// or a miss (served cold by the lane kernels); ReorderBuilds
	// counts layouts published, ReorderEvictions layouts dropped for
	// budget (invalidations are not evictions).
	ReorderHits, ReorderMisses, ReorderBuilds, ReorderEvictions int64
	// ReorderBytes is the instantaneous total bytes of cached layouts —
	// a gauge, always ≤ the configured budget.
	ReorderBytes int64
}

// Server is a long-lived fleet of warm engines serving rank and scan
// requests: the serving layer on top of the engine and worker-pool
// layers. Create one with NewServer, submit with Submit (or the Rank
// and Scan helpers), and shut it down with Close. All methods are
// safe for concurrent use.
type Server struct {
	bins    fleet.Bins
	shards  []*shard
	tickets fleet.FreeList[*Ticket]

	submitted atomic.Int64
	rejected  atomic.Int64
	// expired counts admission-time expiries (deadline passed or
	// context done before the request was enqueued); in-shard expiries
	// are counted by the shards.
	expired atomic.Int64
	// trivial counts requests completed in place without touching a
	// shard (zero-length lists); they count as served so the
	// Submitted = Served + Rejected + Expired + Poisoned + Shed
	// identity holds.
	trivial atomic.Int64
	// shed counts ErrShed fast-rejections (adaptive admission and
	// hard-pressure shedding); shedOn gates the deadline-based path
	// (ServerOptions.Shed). gov is the memory governor (never nil;
	// defaults to the process-wide one).
	shed   atomic.Int64
	shedOn bool
	gov    *govern.Governor

	// Segmented (cross-shard) dispatch. procs is the resolved worker
	// budget (the orchestrator's inline phases use it); autoSegment is
	// ServerOptions.AutoSegment. Parents complete on their orchestrator
	// goroutine, outside any shard, so their outcome buckets are these
	// server-level counters; segActive bounds live orchestrators
	// (beyond the cap a parent degrades to monolithic service), and
	// segWG lets Close wait for them. segPool is the orchestrators'
	// own worker pool for the fan-outs they run inline (Prepare, the
	// boundary rank); Close closes it, after which an orchestrator's
	// fan-outs fall back to spawn-per-call, which cannot leak.
	procs       int
	autoSegment int
	segmented   atomic.Int64
	segSubmits  atomic.Int64
	segServed   atomic.Int64
	segExpired  atomic.Int64
	segPoisoned atomic.Int64
	segActive   atomic.Int64
	segWG       sync.WaitGroup
	segPool     *WorkerPool

	closed atomic.Bool
	wg     sync.WaitGroup
}

// shard owns one size bin: a bounded admission queue, a dispatcher
// goroutine, a worker pool sized to the shard's share of the server's
// Procs, and one warm engine per pool worker.
type shard struct {
	q       *fleet.Queue[*Ticket]
	pool    *WorkerPool
	procs   int
	engines []*Engine
	// batch is the dispatcher's reused take buffer; coalesce marks
	// bounded bins, whose multi-request batches are served with
	// across-request parallelism. batchDone[i] records that batch[i]'s
	// serve ran to completion, so a pool-level fault escaping a
	// coalesced dispatch (possible only outside any single request's
	// serve — per-request faults never leave run) can fail exactly the
	// stranded tickets instead of leaving their Waits hanging.
	batch     []*Ticket
	batchDone []bool
	coalesce  bool
	// validate enables the cheap pre-serve structural check
	// (ServerOptions.ValidateInputs).
	validate bool
	// cache is this shard's reorder cache (see handle.go).
	cache reorderCache

	served     atomic.Int64
	dispatches atomic.Int64
	coalesced  atomic.Int64
	// Failure-domain counters: requests that reached this shard but
	// did not complete successfully. rejected counts ValidateInputs
	// failures; expired counts cancellations and deadline expiries
	// (queued or mid-run); poisoned counts contained serve panics.
	rejected atomic.Int64
	expired  atomic.Int64
	poisoned atomic.Int64

	// Adaptive-admission state (ServerOptions.Shed). backlog is the
	// total elements of tickets currently occupying the queue or being
	// served; ewmaNs holds the shard's smoothed serve cost in ns per
	// element as math.Float64bits (0 = cold, admit everything). Only
	// the dispatcher writes ewmaNs; submitters read both to estimate
	// queue wait.
	backlog atomic.Int64
	ewmaNs  atomic.Uint64
}

// observe folds one dispatch's measured cost into the shard's EWMA.
// Single writer (the dispatcher), so load/store suffices.
func (sh *shard) observe(elems int64, d time.Duration) {
	sample := float64(d.Nanoseconds()) / float64(elems)
	prev := math.Float64frombits(sh.ewmaNs.Load())
	next := sample
	if prev > 0 {
		next = 0.2*sample + 0.8*prev
	}
	sh.ewmaNs.Store(math.Float64bits(next))
}

// estWait estimates how long a new n-element request would wait
// behind the shard's current backlog before its serve completes.
// 0 means "no estimate" (cold shard): admit.
func (sh *shard) estWait(n int) time.Duration {
	ewma := math.Float64frombits(sh.ewmaNs.Load())
	if ewma <= 0 {
		return 0
	}
	elems := sh.backlog.Load() + int64(n)
	return time.Duration(float64(elems) * ewma)
}

// drainBacklog returns the ticket's elements to the shard's backlog
// gauge; exactly one completion path per ticket calls it effectively
// (elems is zeroed on first drain).
func (sh *shard) drainBacklog(t *Ticket) {
	if t.elems > 0 {
		sh.backlog.Add(-int64(t.elems))
		t.elems = 0
	}
}

// NewServer starts a server. The caller owns it and must Close it;
// see SharedServer for the process-wide instance behind the batch
// entry points.
func NewServer(opt ServerOptions) *Server {
	procs := opt.Procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	bounds := opt.BinBounds
	if bounds == nil {
		bounds = fleet.DefaultBinBounds
	}
	depth := opt.QueueDepth
	if depth <= 0 {
		depth = 1024
	}
	maxBatch := opt.MaxCoalesce
	if maxBatch <= 0 {
		maxBatch = 64
	}
	policy := fleet.Block
	if opt.Reject {
		policy = fleet.Reject
	}
	reorderAfter := opt.ReorderAfter
	if reorderAfter == 0 {
		reorderAfter = 2
	}
	reorderBudget := opt.ReorderBudgetBytes
	if reorderBudget == 0 {
		reorderBudget = 256 << 20
	}
	if reorderAfter < 0 || reorderBudget < 0 {
		reorderAfter, reorderBudget = 0, 0 // cache disabled
	}
	s := &Server{bins: fleet.NewBins(bounds)}
	s.procs = procs
	s.segPool = NewWorkerPool(procs)
	s.autoSegment = opt.AutoSegment
	s.shedOn = opt.Shed
	s.gov = opt.Governor
	if s.gov == nil {
		s.gov = govern.Process()
	}
	s.tickets.New = func() *Ticket {
		return &Ticket{srv: s, done: make(chan struct{}, 1)}
	}
	nb := s.bins.Count()
	bounded := nb - 1
	s.shards = make([]*shard, nb)
	for b := 0; b < nb; b++ {
		// The unbounded top bin serves one request at a time with
		// within-list parallelism and gets the full budget; the
		// bounded bins split it (remainder to the largest).
		share := procs
		if b < bounded {
			share = procs / bounded
			if b >= bounded-procs%bounded {
				share++
			}
			if share < 1 {
				share = 1
			}
		}
		coalesce := s.bins.Bound(b) != -1
		// A coalescing shard serves batch chunks on one engine per pool
		// worker; the unbounded shard serves one request at a time on
		// engine 0 with within-list parallelism, so one (large) arena
		// is all it ever uses.
		engines := 1
		if coalesce {
			engines = share
		}
		sh := &shard{
			q:         fleet.NewQueue[*Ticket](depth, policy),
			pool:      NewWorkerPool(share),
			procs:     share,
			engines:   make([]*Engine, engines),
			batch:     make([]*Ticket, maxBatch),
			batchDone: make([]bool, maxBatch),
			coalesce:  coalesce,
			validate:  opt.ValidateInputs,
		}
		for w := range sh.engines {
			sh.engines[w] = NewEngine()
			sh.engines[w].SetPool(sh.pool)
		}
		// Each shard polices its even share of the reorder budget, so
		// the summed cached bytes never exceed the configured total.
		share64 := reorderBudget / int64(nb)
		if b == nb-1 {
			share64 = reorderBudget - share64*int64(nb-1)
		}
		sh.cache.init(reorderAfter, share64, s.gov)
		s.shards[b] = sh
	}
	s.Warm(opt.WarmSizes...)
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.dispatcherLoop(sh)
	}
	return s
}

// Warm pre-grows the fleet for problems of the given sizes: every
// engine of each size's shard runs a synthetic rank and scan of that
// size at every parallelism it serves with, so a later steady trace
// of requests no larger than the warmed sizes allocates nothing.
// Warm allocates freely itself (it is the opposite of the steady
// state) and must not run concurrently with request service — call it
// before the first Submit, or between quiescent points.
func (s *Server) Warm(sizes ...int) {
	for _, n := range sizes {
		if n <= 0 {
			continue
		}
		l := NewOrderedList(n)
		dst := make([]int64, n)
		sh := s.shards[s.bins.Index(n)]
		for w, e := range sh.engines {
			e.RankInto(dst, l, Options{Procs: 1})
			e.ScanInto(dst, l, Options{Procs: 1})
			if w == 0 && sh.procs > 1 {
				e.RankInto(dst, l, Options{Procs: sh.procs})
				e.ScanInto(dst, l, Options{Procs: sh.procs})
			}
		}
	}
}

// Submit validates and enqueues a request, returning its ticket
// immediately. Under the default blocking policy Submit parks when
// the target shard's queue is full; under Reject it returns a ticket
// whose Wait reports ErrBackpressure. Submit after Close returns a
// ticket whose Wait reports ErrServerClosed. Wait must be called
// exactly once on the returned ticket.
func (s *Server) Submit(req Request) *Ticket {
	t, _ := s.submit(req)
	return t
}

// submit is Submit plus the outcome as an error, so SubmitTimeout can
// distinguish retryable backpressure from terminal failures without
// consuming the ticket.
func (s *Server) submit(req Request) (*Ticket, error) {
	s.submitted.Add(1)
	t := s.tickets.Get()
	t.req = req
	// Exactly one problem source: a bare List, or a Handle registered
	// with this server.
	var n int
	switch {
	case req.seg != nil:
		// A segment sub-request spawned by serveSegmented: its window
		// length routes it to a size bin like any other request.
		n = int(req.seg.st.Hi - req.seg.st.Lo)
	case req.Handle != nil:
		if req.List != nil || req.Handle.srv != s {
			return s.fail(t, ErrBadRequest), ErrBadRequest
		}
		n = req.Handle.n
	case req.List != nil:
		n = req.List.Len()
	default:
		return s.fail(t, ErrBadRequest), ErrBadRequest
	}
	if req.Dst != nil && len(req.Dst) != n {
		return s.fail(t, ErrBadRequest), ErrBadRequest
	}
	if req.Op == OpScanOp && req.ScanOp == nil {
		return s.fail(t, ErrBadRequest), ErrBadRequest
	}
	if req.Segments < 0 || (req.Segments > 1 && req.Handle != nil) {
		return s.fail(t, ErrBadRequest), ErrBadRequest
	}
	if n == 0 {
		// Nothing to do; complete (and count as served) in place.
		s.trivial.Add(1)
		t.done <- struct{}{}
		return t, nil
	}
	if s.closed.Load() {
		return s.fail(t, ErrServerClosed), ErrServerClosed
	}
	// Hard memory pressure sheds all new top-level load outright —
	// the cheapest possible rejection, before the cancellation token
	// is even armed. Segment sub-requests are exempt: their parent was
	// already admitted and holds the resources either way.
	if req.seg == nil && s.gov.Level() >= govern.LevelHard {
		return s.shedTicket(t), ErrShed
	}
	// Arm the cancellation token before the queue hand-off so a
	// Ticket.Cancel racing with the dispatcher is never lost, and check
	// expiry at admission: an already-dead request must not occupy a
	// queue slot.
	t.cancel.Arm(req.Ctx, req.Deadline)
	if t.cancel.Canceled() {
		return s.expire(t), t.err
	}
	if req.seg == nil && req.Handle == nil {
		if S := s.resolveSegments(req.Segments, n); S > 1 {
			if s.segActive.Add(1) <= maxSegmented {
				s.segmented.Add(1)
				s.segWG.Add(1)
				go s.serveSegmented(t, S)
				return t, nil
			}
			// Orchestrator cap reached: degrade gracefully to monolithic
			// service rather than invent a new failure mode.
			s.segActive.Add(-1)
		}
	}
	sh := s.shards[s.bins.Index(n)]
	if req.Handle != nil {
		sh = req.Handle.sh // routing fixed at registration
	}
	// Deadline-aware adaptive admission: if the shard's estimated
	// queue wait already exceeds the request's deadline, fail in
	// microseconds now instead of expiring at p99 later. Cold shards
	// (no EWMA yet) admit everything; segment sub-requests are exempt
	// (the parent's deadline governs them cooperatively).
	if s.shedOn && req.seg == nil && !req.Deadline.IsZero() {
		if wait := sh.estWait(n); wait > 0 && time.Now().Add(wait).After(req.Deadline) {
			return s.shedTicket(t), ErrShed
		}
	}
	t.elems = n
	sh.backlog.Add(int64(n))
	if err := sh.q.Put(t); err != nil {
		sh.drainBacklog(t)
		if errors.Is(err, fleet.ErrClosed) {
			return s.fail(t, ErrServerClosed), ErrServerClosed
		}
		return s.fail(t, ErrBackpressure), ErrBackpressure
	}
	return t, nil
}

// shedTicket completes a ticket fast-rejected by load shedding.
func (s *Server) shedTicket(t *Ticket) *Ticket {
	s.shed.Add(1)
	t.err = ErrShed
	t.done <- struct{}{}
	return t
}

// SubmitTimeout submits under the Reject backpressure policy with
// bounded retry: on ErrBackpressure it backs off and resubmits until
// the request is admitted or timeout elapses, returning the admitted
// ticket or (nil, ErrBackpressure) if the queue never opened. Each
// retry sleeps a full-jitter draw — uniform in (0, cap], with the cap
// doubling from 50µs to 5ms — so concurrent retriers decorrelate
// instead of re-colliding in synchronized herds. Non-backpressure
// failures (including ErrShed — shedding means "back off for longer
// than a queue slot takes to open", so hammering it defeats the
// point) return the failed ticket's error immediately with a nil
// ticket; in every error case the ticket has already been consumed —
// the caller must not Wait. Each attempt is one submission, so under
// retry the stats identity counts every rejected attempt
// individually. Under the default blocking policy Submit never
// reports backpressure and SubmitTimeout degenerates to a single
// Submit.
func (s *Server) SubmitTimeout(req Request, timeout time.Duration) (*Ticket, error) {
	deadline := time.Now().Add(timeout)
	backoff := 50 * time.Microsecond
	for {
		t, err := s.submit(req)
		if err == nil {
			return t, nil
		}
		t.Wait() // consume and recycle the failed ticket
		if !errors.Is(err, ErrBackpressure) {
			return nil, err
		}
		now := time.Now()
		if !now.Before(deadline) {
			return nil, ErrBackpressure
		}
		d := jitterBackoff(backoff)
		if rem := deadline.Sub(now); d > rem {
			d = rem
		}
		time.Sleep(d)
		if backoff < 5*time.Millisecond {
			backoff *= 2
		}
	}
}

// jitterBackoff draws a full-jitter retry delay: uniform in (0, max].
// Full jitter (delay = rand(0, cap) rather than delay = cap) is what
// keeps a herd of simultaneous rejects from retrying in lockstep and
// re-colliding on the same queue-full instant forever.
func jitterBackoff(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(max))) + 1
}

// Rank submits a ranking request with default per-request options;
// dst may be nil to have the server allocate the result.
func (s *Server) Rank(l *List, dst []int64) *Ticket {
	return s.Submit(Request{Op: OpRank, List: l, Dst: dst})
}

// Scan submits an exclusive integer-addition scan request; dst may be
// nil to have the server allocate the result.
func (s *Server) Scan(l *List, dst []int64) *Ticket {
	return s.Submit(Request{Op: OpScan, List: l, Dst: dst})
}

// fail completes a ticket that never ran.
func (s *Server) fail(t *Ticket, err error) *Ticket {
	s.rejected.Add(1)
	t.err = err
	t.done <- struct{}{}
	return t
}

// expire completes a ticket that was dead on arrival (deadline passed
// or context done at admission).
func (s *Server) expire(t *Ticket) *Ticket {
	s.expired.Add(1)
	if t.cancel.DeadlineExceeded() {
		t.err = ErrDeadlineExceeded
	} else {
		t.err = ErrCanceled
	}
	t.done <- struct{}{}
	return t
}

// Close shuts the server down deterministically: admission stops,
// every request admitted before Close is still served, and Close
// returns only after the dispatchers and their worker pools have
// terminated. Close is idempotent; submissions after Close complete
// with ErrServerClosed.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	for _, sh := range s.shards {
		sh.q.Close()
	}
	s.wg.Wait()
	// Orchestrators waiting on sub-requests have them all by now (the
	// dispatchers drained before exiting); any later wave fails
	// admission and is finished inline, so this wait is bounded.
	s.segWG.Wait()
	s.segPool.Close()
	for _, sh := range s.shards {
		sh.pool.Close()
		// Release the shard's cached reorder layouts so the governor's
		// ClassReorder accounting returns to zero: a closed server
		// holds no memory the process should still budget for.
		sh.cache.purge()
	}
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Submitted:  s.submitted.Load(),
		Rejected:   s.rejected.Load(),
		Expired:    s.expired.Load() + s.segExpired.Load(),
		Served:     s.trivial.Load() + s.segServed.Load(),
		Poisoned:   s.segPoisoned.Load(),
		Shed:       s.shed.Load(),
		Segmented:  s.segmented.Load(),
		SegSubmits: s.segSubmits.Load(),
		BinServed:  make([]int64, len(s.shards)),
		BinQueued:  make([]int64, len(s.shards)),
	}
	for b, sh := range s.shards {
		st.BinServed[b] = sh.served.Load()
		st.BinQueued[b] = int64(sh.q.Len())
		st.Served += st.BinServed[b]
		st.Dispatches += sh.dispatches.Load()
		st.Coalesced += sh.coalesced.Load()
		st.Rejected += sh.rejected.Load()
		st.Expired += sh.expired.Load()
		st.Poisoned += sh.poisoned.Load()
		rc := &sh.cache
		st.ReorderHits += rc.hits.Load()
		st.ReorderMisses += rc.misses.Load()
		st.ReorderBuilds += rc.builds.Load()
		st.ReorderEvictions += rc.evictions.Load()
		rc.mu.Lock()
		st.ReorderBytes += rc.bytes
		rc.mu.Unlock()
	}
	return st
}

// dispatcherLoop is a shard's dispatcher: it takes everything that
// queued while it was busy in one hand-off and serves it, until the
// queue is closed and drained.
func (s *Server) dispatcherLoop(sh *shard) {
	defer s.wg.Done()
	for {
		n, ok := sh.q.TakeBatch(sh.batch)
		if !ok {
			return
		}
		// Sum the batch's elements before serving: completed tickets
		// are recycled the instant their Wait returns, so touching
		// them after serve would race.
		var elems int64
		for i := 0; i < n; i++ {
			elems += int64(sh.batch[i].elems)
		}
		start := time.Now()
		sh.serve(n)
		if elems > 0 {
			sh.observe(elems, time.Since(start))
		}
		for i := 0; i < n; i++ {
			sh.batch[i] = nil // don't pin served tickets
		}
	}
}

// serve runs the first n tickets of the batch buffer. Multi-request
// batches on bounded (coalescing) bins fan out across the shard's
// pool — worker w serves its chunk of requests inline on engine w,
// the RankAll schedule — while lone requests and unbounded-bin
// requests run with within-list parallelism on the shard's pool.
func (sh *shard) serve(n int) {
	if n > 1 && sh.coalesce {
		sh.dispatches.Add(1)
		sh.coalesced.Add(int64(n))
		sh.serveBatch(n)
		return
	}
	for i := 0; i < n; i++ {
		sh.dispatches.Add(1)
		sh.run(sh.batch[i], sh.engines[0], sh.procs)
	}
}

// serveBatch fans a coalesced batch across the pool and contains
// pool-level faults: a panic that escapes the dispatch struck the
// worker machinery itself, outside any request's serve (per-request
// faults — poisoned inputs, cancellations — are recovered inside run
// and never reach here), so every ticket whose serve did not complete
// is failed with ErrPanic rather than stranding its Wait, and the
// dispatcher survives to take the next batch. The worker pool itself
// recovers from contained faults (see internal/par), so the shard
// keeps serving.
func (sh *shard) serveBatch(n int) {
	for i := 0; i < n; i++ {
		sh.batchDone[i] = false
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// The pool quiesced before rethrowing, so batchDone is settled:
		// un-done tickets never completed and their clients still wait.
		for i := 0; i < n; i++ {
			if !sh.batchDone[i] {
				t := sh.batch[i]
				sh.drainBacklog(t)
				t.err = fmt.Errorf("%w: %v", ErrPanic, r)
				sh.poisoned.Add(1)
				t.done <- struct{}{}
			}
		}
	}()
	sh.pool.ForChunksCtx(n, sh.procs, sh, shardServeChunk)
}

// shardServeChunk is the named coalesced-dispatch body (closure-free,
// per the worker pool's zero-allocation Ctx contract): pool worker w
// serves requests [lo, hi) inline on its own engine.
func shardServeChunk(ctx any, w, lo, hi int) {
	sh := ctx.(*shard)
	for i := lo; i < hi; i++ {
		sh.run(sh.batch[i], sh.engines[w], 1)
		sh.batchDone[i] = true
	}
}

// run serves one ticket on the given engine at the given parallelism
// and completes it. A panic out of the engine — a poisoned list
// violating List's invariants, or a cooperative-cancellation
// abandonment — is captured into the ticket's error by finish instead
// of killing the dispatcher (or, on a coalesced batch, the pool worker
// serving the rest of its chunk).
func (sh *shard) run(t *Ticket, e *Engine, procs int) {
	defer sh.finish(t)
	// A request that expired or was canceled while queued must not
	// occupy the engine.
	if t.cancel.Canceled() {
		if t.cancel.DeadlineExceeded() {
			t.err = ErrDeadlineExceeded
		} else {
			t.err = ErrCanceled
		}
		return
	}
	req := &t.req
	if req.seg != nil {
		req.seg.run(t)
		return
	}
	if req.Handle != nil {
		sh.runHandle(t, e, procs)
		return
	}
	if sh.validate {
		if err := sh.checkList(req.List, procs); err != nil {
			t.err = err
			return
		}
	}
	if req.Dst == nil {
		req.Dst = make([]int64, req.List.Len())
	}
	opt := req.Opt
	opt.Procs = procs
	opt.cancel = &t.cancel
	switch req.Op {
	case OpScan:
		e.ScanInto(req.Dst, req.List, opt)
	case OpScanOp:
		e.ScanOpInto(req.Dst, req.List, req.ScanOp, req.Identity, opt)
	default:
		e.RankInto(req.Dst, req.List, opt)
	}
}

// checkList is the ValidateInputs pass (see ServerOptions): one
// parallel memory-sequential sweep over Next checking that the head
// and every link are in range and that exactly one vertex — the tail —
// links to itself. It rejects the out-of-range corruption class before
// it can trip the kernel guards; in-range structural damage (disjoint
// cycles) is indistinguishable from a valid list without ranking it,
// and is left to fault containment. Runs on the shard's pool but
// closes over locals (validation is opt-in, off the zero-allocation
// steady-state contract).
func (sh *shard) checkList(l *List, procs int) error {
	n := l.Len()
	if l.Head < 0 || l.Head >= int64(n) {
		return fmt.Errorf("%w: head %d out of range [0,%d)", ErrBadRequest, l.Head, n)
	}
	if len(l.Value) != n {
		return fmt.Errorf("%w: %d values for %d vertices", ErrBadRequest, len(l.Value), n)
	}
	next := l.Next
	var bad, loops atomic.Int64
	sh.pool.ForChunks(n, procs, func(w, lo, hi int) {
		var b, sl int64
		for i := lo; i < hi; i++ {
			nx := next[i]
			if uint64(nx) >= uint64(n) {
				b++
			} else if nx == int64(i) {
				sl++
			}
		}
		if b != 0 {
			bad.Add(b)
		}
		if sl != 0 {
			loops.Add(sl)
		}
	})
	if b := bad.Load(); b != 0 {
		return fmt.Errorf("%w: %d out-of-range links", ErrBadRequest, b)
	}
	if sl := loops.Load(); sl != 1 {
		return fmt.Errorf("%w: %d self-loops, want exactly 1 (the tail)", ErrBadRequest, sl)
	}
	return nil
}

// finish completes a ticket: it classifies a serve-time panic —
// cooperative cancellation unwinds as core.ErrCanceled, anything else
// is a contained fault wrapped in ErrPanic with the original message
// preserved — and counts the ticket into exactly one failure-domain
// bucket so the ServerStats identity holds.
func (sh *shard) finish(t *Ticket) {
	sh.drainBacklog(t)
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
		sh.served.Add(1)
	case errors.Is(t.err, ErrDeadlineExceeded), errors.Is(t.err, ErrCanceled):
		sh.expired.Add(1)
	case errors.Is(t.err, ErrBadRequest):
		sh.rejected.Add(1)
	default:
		sh.poisoned.Add(1)
	}
	t.done <- struct{}{}
}

// BinBounds returns the server's size-bin upper bounds, one per bin
// in routing order, with the final unbounded bin reported as -1 — the
// labels a metrics exporter needs to make the per-bin counters in
// Stats legible.
func (s *Server) BinBounds() []int {
	out := make([]int, s.bins.Count())
	for b := range out {
		out[b] = s.bins.Bound(b)
	}
	return out
}

// SharedServer returns the process-wide server, created on first use
// with default options (hardware-sized, blocking admission) and never
// closed — the serving-layer analogue of SharedWorkerPool. The batch
// entry points (RankAll, ScanAll) ride it, and ad-hoc callers that
// want futures without owning a fleet can too.
func SharedServer() *Server {
	sharedServerOnce.Do(func() { sharedServer = NewServer(ServerOptions{}) })
	return sharedServer
}

var (
	sharedServerOnce sync.Once
	sharedServer     *Server
)
