package listrank

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	// Segments, when > 1, asks for segmented service: the request is
	// queued like any other, and its shard cuts the list into that many
	// contiguous segments and serves it on the in-core segmented engine
	// — run walks, boundary-list rank, offset broadcast (see
	// internal/segment and DESIGN.md, "Ranking beyond one arena").
	// 0 and 1 serve monolithically; negative values, or Segments with
	// Handle, fail with ErrBadRequest. Segmented requests ignore
	// Opt.Algorithm, even Serial, and Opt.M and Opt.LaneWidth; they
	// are off the zero-allocation steady-state contract.
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
	// Seed, M and LaneWidth are honored per request. Every request runs
	// on a shard engine: the sublist algorithm, or the serial walk when
	// Algorithm is Serial.
	Opt Options
	// Deadline, if non-zero, is the wall-clock instant after which the
	// request must not keep running: a request that expires while
	// queued fails with ErrDeadlineExceeded without ever running on an
	// engine, and one that expires mid-run is cooperatively abandoned
	// at the engine's next cancellation checkpoint (phase boundary or
	// kernel chunk strip — tens of microseconds of chasing, not the
	// rest of the problem). The serial walk (Opt.Algorithm Serial) does
	// not poll it once running.
	Deadline time.Time
	// Ctx, if non-nil, cancels the request when it is done: the run is
	// abandoned exactly as for Deadline, and Wait reports ErrCanceled.
	// The context is polled, not watched — no goroutine is spawned per
	// request — and is released at completion.
	Ctx context.Context
}

// Errors reported by Ticket.Wait.
var (
	// ErrServerClosed reports a submission to a closed server (or one
	// that closed while the submitter was parked on a full queue).
	ErrServerClosed = errors.New("listrank: server closed")
	// ErrBackpressure reports a rejected submission: the target
	// shard's admission queue was full under the Reject policy.
	ErrBackpressure = errors.New("listrank: admission queue full")
	// ErrBadRequest reports a request rejected at admission: a nil
	// List, a Dst or (for a scan) a Value whose length does not match
	// the list, and the like. A list that is not one chain is not
	// checked here: its engine refuses it (ErrPanic and ErrNotList).
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
	// sh and elems are the ticket's share of a shard's backlog gauge —
	// the unit of shed-wait estimation — from the queue hand-off until
	// complete drains it; sh is nil for tickets that never reach a
	// shard queue.
	sh    *shard
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
// mid-run); an ErrPanic-wrapped error if a fault was contained while
// serving it, which for a list that is not one chain also wraps
// ErrNotList.
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
	// contiguous segments (at most 64), exactly as if Request.Segments
	// had been set. Handle requests are never auto-split. 0 disables
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
	// handle, 16 for a list without values). The shards share it: a
	// build that takes the cache over budget evicts the server-wide
	// least-recently-used layouts, never the one just built. 0 selects
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
	// never ran (backpressure, closed server, ErrBadRequest). A list
	// that is not one chain runs and counts as Poisoned.
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
	// Segmented counts requests served by the segmented engine (see
	// Request.Segments); each also lands in exactly one of the identity
	// buckets above — served, poisoned, or expired mid-run.
	Segmented int64
	// BinServed counts successfully served requests per size bin
	// (zero-length completions appear in no bin).
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

	// submitted counts Submit calls; the five outcome buckets of the
	// ServerStats identity are counted by Ticket.complete alone.
	submitted                                 atomic.Int64
	served, rejected, expired, poisoned, shed atomic.Int64

	// shedOn gates deadline-aware shedding (ServerOptions.Shed). gov is
	// the memory governor (never nil; defaults to the process-wide one).
	shedOn bool
	gov    *govern.Governor

	// autoSegment is ServerOptions.AutoSegment; segmented feeds
	// ServerStats.Segmented.
	autoSegment int
	segmented   atomic.Int64

	// cache is the reorder cache every shard serves handle hits from
	// and publishes builds into (see handle.go).
	cache reorderCache

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

	// The counters below are written on every request, by submitters,
	// the dispatcher and completions, while pool workers and submitters
	// read the fields above on every request too. The pads give the
	// counters cache lines of their own (and keep them off the next
	// heap object's), so those writes do not keep invalidating the
	// read-mostly lines (EXPERIMENTS.md, "One reorder cache per
	// Server", measures serve-small with and without them).
	_ [falseSharingPad]byte

	// served feeds ServerStats.BinServed (the identity's Served bucket
	// is the server's); dispatches and coalesced feed their namesakes.
	served     atomic.Int64
	dispatches atomic.Int64
	coalesced  atomic.Int64

	// Adaptive-admission state (ServerOptions.Shed). backlog is the
	// total elements of tickets currently occupying the queue or being
	// served; ewmaNs holds the shard's smoothed serve cost in ns per
	// element as math.Float64bits (0 = cold, admit everything). Only
	// the dispatcher writes ewmaNs; submitters read both to estimate
	// queue wait.
	backlog atomic.Int64
	ewmaNs  atomic.Uint64

	_ [falseSharingPad]byte
}

// falseSharingPad is two 64-byte cache lines: the adjacent-line
// prefetcher moves lines in aligned pairs, so a write within 128 bytes
// of a hot read can still cost that reader a miss.
const falseSharingPad = 128

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
	gov := opt.Governor
	if gov == nil {
		gov = govern.Process()
	}
	s := &Server{
		bins:        fleet.NewBins(bounds),
		shedOn:      opt.Shed,
		gov:         gov,
		autoSegment: opt.AutoSegment,
		cache:       reorderCache{after: reorderAfter, budget: reorderBudget, gov: gov},
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
		}
		for w := range sh.engines {
			sh.engines[w] = NewEngine()
			sh.engines[w].SetPool(sh.pool)
		}
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
	s.submitted.Add(1)
	t := s.tickets.Get()
	t.req = req
	if queued, err := s.admit(t); !queued {
		t.complete(err)
	}
	return t
}

// admit takes a fresh ticket through admission. It returns queued =
// true once a shard queue owns the ticket and will complete it;
// otherwise the ticket ends at admission with err, which is nil only
// for a zero-length list (served in place).
func (s *Server) admit(t *Ticket) (queued bool, err error) {
	req := &t.req
	// Exactly one problem source: a bare List, or a Handle registered
	// with this server.
	l, n := req.List, 0
	switch {
	case req.Handle != nil:
		if l != nil || req.Handle.srv != s {
			return false, ErrBadRequest
		}
		l, n = req.Handle.list, req.Handle.n
	case l != nil:
		n = l.Len()
	default:
		return false, ErrBadRequest
	}
	if (req.Dst != nil && len(req.Dst) != n) || (req.Op == OpScanOp && req.ScanOp == nil) ||
		(req.Op != OpRank && len(l.Value) != n) ||
		req.Segments < 0 || (req.Segments > 1 && req.Handle != nil) {
		return false, ErrBadRequest
	}
	if s.closed.Load() {
		return false, ErrServerClosed
	}
	if n == 0 {
		return false, nil // nothing to do
	}
	// Hard memory pressure sheds all new load outright — the cheapest
	// possible rejection, before the cancellation token is even armed.
	if s.gov.Level() >= govern.LevelHard {
		return false, ErrShed
	}
	// Arm the cancellation token before the queue hand-off so a
	// Ticket.Cancel racing with the dispatcher is never lost, and check
	// expiry at admission: an already-dead request must not occupy a
	// queue slot.
	t.cancel.Arm(req.Ctx, req.Deadline)
	if t.cancel.Canceled() {
		return false, t.withdrawn()
	}
	sh := s.shards[s.bins.Index(n)]
	if req.Handle != nil {
		sh = req.Handle.sh // routing fixed at registration
	}
	// Deadline-aware adaptive admission: if the shard's estimated
	// queue wait already exceeds the request's deadline, fail in
	// microseconds now instead of expiring at p99 later. Cold shards
	// (no EWMA yet) admit everything.
	if s.shedOn && !req.Deadline.IsZero() {
		if wait := sh.estWait(n); wait > 0 && time.Now().Add(wait).After(req.Deadline) {
			return false, ErrShed
		}
	}
	t.sh, t.elems = sh, n
	sh.backlog.Add(int64(n))
	if err := sh.q.Put(t); err != nil {
		if errors.Is(err, fleet.ErrClosed) {
			return false, ErrServerClosed
		}
		return false, ErrBackpressure
	}
	return true, nil
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
	for _, sh := range s.shards {
		sh.pool.Close()
	}
	// Release the cached reorder layouts so the governor's ClassReorder
	// accounting returns to zero: a closed server holds no memory the
	// process should still budget for.
	s.cache.purge()
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Submitted: s.submitted.Load(),
		Served:    s.served.Load(),
		Rejected:  s.rejected.Load(),
		Expired:   s.expired.Load(),
		Poisoned:  s.poisoned.Load(),
		Shed:      s.shed.Load(),
		Segmented: s.segmented.Load(),
		BinServed: make([]int64, len(s.shards)),
		BinQueued: make([]int64, len(s.shards)),

		ReorderHits:      s.cache.hits.Load(),
		ReorderMisses:    s.cache.misses.Load(),
		ReorderBuilds:    s.cache.builds.Load(),
		ReorderEvictions: s.cache.evictions.Load(),
	}
	for b, sh := range s.shards {
		st.BinServed[b] = sh.served.Load()
		st.BinQueued[b] = int64(sh.q.Len())
		st.Dispatches += sh.dispatches.Load()
		st.Coalesced += sh.coalesced.Load()
	}
	s.cache.mu.Lock()
	st.ReorderBytes = s.cache.bytes
	s.cache.mu.Unlock()
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
				t.complete(t.panicErr(r))
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
// — the only code that serves a ticket. A bare-List request that
// resolves to more than one segment runs on the segmented engine
// instead of e. Its deferred finish completes the ticket and contains
// any panic out of the serve — a poisoned list violating List's
// invariants, or a cooperative-cancellation abandonment — to this
// ticket instead of killing the dispatcher (or, on a coalesced batch,
// the pool worker serving the rest of its chunk).
func (sh *shard) run(t *Ticket, e *Engine, procs int) {
	defer t.finish()
	// A request that expired or was canceled while queued must not
	// occupy the engine.
	if t.cancel.Canceled() {
		t.err = t.withdrawn()
		return
	}
	req := &t.req
	l, h := req.List, req.Handle
	if h != nil {
		l = h.list
	}
	if req.Dst == nil {
		req.Dst = make([]int64, l.Len())
	}
	if h == nil {
		if S := t.srv.resolveSegments(req.Segments, l.Len()); S > 1 {
			sh.runSegmented(t, S, procs)
			return
		}
	} else if t.srv.cache.serveHit(req) {
		return
	}
	opt := req.Opt
	opt.Procs = procs
	opt.cancel = &t.cancel
	switch req.Op {
	case OpScan:
		e.ScanInto(req.Dst, l, opt)
	case OpScanOp:
		e.ScanOpInto(req.Dst, l, req.ScanOp, req.Identity, opt)
	default:
		e.RankInto(req.Dst, l, opt)
	}
	if h != nil {
		t.srv.cache.maybeBuild(h, e, procs, req)
	}
}

// The ticket lifecycle. Every submission ends in exactly one call to
// complete — rejected, shed or expired at admission, or served or
// failed on a shard — so the ServerStats identity is kept in one
// place.

// complete ends the ticket's lifecycle: it drains the ticket's share
// of its shard's backlog, records err as the outcome, counts the
// ticket into exactly one of the five identity buckets, and releases
// Wait. It is the only sender on done; the ticket may be recycled the
// moment the send lands.
func (t *Ticket) complete(err error) {
	s, sh := t.srv, t.sh
	if sh != nil {
		sh.backlog.Add(-int64(t.elems))
		t.sh, t.elems = nil, 0
	}
	t.err = err
	switch {
	case err == nil:
		s.served.Add(1)
		if sh != nil {
			sh.served.Add(1)
		}
	case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, ErrCanceled):
		s.expired.Add(1)
	case errors.Is(err, ErrShed):
		s.shed.Add(1)
	case errors.Is(err, ErrBadRequest), errors.Is(err, ErrServerClosed), errors.Is(err, ErrBackpressure):
		s.rejected.Add(1)
	default:
		s.poisoned.Add(1)
	}
	t.done <- struct{}{}
}

// finish is deferred by every serve (shard.run): it recovers whatever
// unwound out of the serve into the ticket's error and completes the
// ticket.
func (t *Ticket) finish() {
	if r := recover(); r != nil {
		t.err = t.panicErr(r)
	}
	t.complete(t.err)
}

// panicErr classifies a panic recovered while serving the ticket:
// cooperative cancellation unwinds as core.ErrCanceled and reports why
// the ticket was withdrawn; anything else — a list the engine refused,
// an injected fault — is a contained fault wrapped in ErrPanic. An
// error panic stays in the chain, so errors.Is also matches what it
// wraps (ErrNotList for a refused list); any other panic keeps its
// message.
func (t *Ticket) panicErr(r any) error {
	err, ok := r.(error)
	switch {
	case ok && errors.Is(err, core.ErrCanceled):
		return t.withdrawn()
	case ok:
		return fmt.Errorf("%w: %w", ErrPanic, err)
	}
	return fmt.Errorf("%w: %v", ErrPanic, r)
}

// withdrawn is the error of a ticket whose cancellation token tripped:
// ErrDeadlineExceeded if its deadline passed, ErrCanceled otherwise.
func (t *Ticket) withdrawn() error {
	if t.cancel.DeadlineExceeded() {
		return ErrDeadlineExceeded
	}
	return ErrCanceled
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
