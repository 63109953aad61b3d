package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"listrank/internal/chaos"
)

// This file is layer 0 of the arena architecture: the persistent
// worker-pool runtime. The paper's multiprocessor accounting (§5,
// Table II) assumes processors are *resident* — a schedule pays for
// synchronization between rounds, never for re-acquiring its
// processors per problem. The free functions in this package violate
// that on the goroutine track: every ForChunks/RunWorkers call spawns
// p fresh goroutines and allocates a WaitGroup (and usually a closure),
// so the engine layer's zero-steady-state-allocation guarantee used to
// collapse to Procs == 1. A Pool restores the paper's discipline: a
// fixed set of worker goroutines is created once, parks on a reusable
// barrier between fan-outs, and services any number of dispatches with
// zero heap allocations — per-phase fan-out cost drops from
// spawn+schedule+free to an unpark and two barrier crossings
// (BenchmarkFanout measures both).
//
// Two API surfaces share one dispatch path:
//
//   - ForChunks mirrors the free function. The pool side allocates
//     nothing, but a closure literal passed to it still heap-allocates
//     at the call site (it escapes into the pool's job slot), so it is
//     for call sites that are off the steady-state contract.
//   - ForChunksCtx takes a context pointer plus a *named* function. A
//     top-level func value is a static pointer and a pointer-shaped
//     ctx converts to any without allocating, so a dispatch through it
//     performs zero heap allocations. The engine hot paths stash
//     per-call arguments in their arena and pass the arena as ctx (see
//     core.Scratch.fc).
//
// Concurrency: a Pool serves one dispatch at a time. Dispatch entry is
// a busy-CAS; a pool that is already occupied (a concurrent engine, or
// a nested fan-out from inside a worker body) degrades that call to
// the spawn-per-call free functions, which are always correct. This is
// what lets every engine share the process-wide Shared() pool: the
// common case (one engine streaming problems) is resident-worker fast,
// and contention costs only a goroutine spawn, never a deadlock.
//
// The free functions remain as-is — they are the spawn-per-call
// fallback, and the reference algorithms (wyllie, ruling, randmate)
// deliberately stay on them so their measured costs keep including the
// per-call fan-out the paper's baselines would pay.

// WorkerPanic is the value a fan-out rethrows on the dispatching
// goroutine when one of its worker bodies panicked. Containment is
// what makes the runtime crash-safe to serve on: without it, a panic
// on a spawned or resident worker goroutine kills the whole process
// (Go offers no cross-goroutine recover), so one malformed request
// inside a fan-out would take down every request in flight. Instead,
// each worker recovers its own panic, records the first one in the
// dispatch's panic slot, and still reaches the completion barrier; the
// dispatcher then observes a fully-quiesced fan-out and rethrows the
// fault here, where the caller's ordinary recover can see it. Value
// preserves the original panic value and Stack the faulted worker's
// stack. WorkerPanic implements error (and unwraps to Value when that
// is itself an error), so recover sites can classify the fault with
// errors.Is through the usual chain.
type WorkerPanic struct {
	// Value is the original value the worker panicked with.
	Value any
	// Stack is the faulted worker's stack trace, captured at recover.
	Stack []byte
}

// Error formats the original panic value; the worker stack is carried
// separately in Stack so logs can include it without bloating the
// message.
func (wp *WorkerPanic) Error() string {
	return fmt.Sprintf("par: panic on fan-out worker: %v", wp.Value)
}

// Unwrap exposes Value when the worker panicked with an error, so
// errors.Is / errors.As reach through the containment wrapper.
func (wp *WorkerPanic) Unwrap() error {
	if err, ok := wp.Value.(error); ok {
		return err
	}
	return nil
}

// wrapPanic normalizes a recovered value into a *WorkerPanic, keeping
// an already-wrapped fault (a nested fan-out's rethrow caught by an
// outer worker) as-is so the original value and stack survive.
func wrapPanic(r any) *WorkerPanic {
	if wp, ok := r.(*WorkerPanic); ok {
		return wp
	}
	return &WorkerPanic{Value: r, Stack: debug.Stack()}
}

// panicSlot collects the first panic of one fan-out. The fault path
// may allocate freely (it is the opposite of the steady state); the
// no-fault path costs one recover call per worker per dispatch.
type panicSlot struct {
	mu  sync.Mutex
	val *WorkerPanic
}

// recoverInto is the deferred recover of a spawned fan-out worker:
// the panic is swallowed into the slot and the worker still reaches
// its WaitGroup.
func (ps *panicSlot) recoverInto() {
	if r := recover(); r != nil {
		ps.note(r)
	}
}

// note records r if it is the fan-out's first fault.
func (ps *panicSlot) note(r any) {
	wp := wrapPanic(r)
	ps.mu.Lock()
	if ps.val == nil {
		ps.val = wp
	}
	ps.mu.Unlock()
}

// rethrow re-panics the recorded fault, if any, clearing the slot for
// the next dispatch. It must run after the fan-out has fully
// quiesced. Free-function fan-outs call it on their local slot; a
// Pool instead takes the fault before release (see finishDispatch)
// because its slot is shared across dispatches.
func (ps *panicSlot) rethrow() {
	if ps.val == nil {
		return
	}
	wp := ps.val
	ps.val = nil
	panic(wp)
}

// take removes and returns the recorded fault, leaving the slot clean
// for the next dispatch.
func (ps *panicSlot) take() *WorkerPanic {
	ps.mu.Lock()
	wp := ps.val
	ps.val = nil
	ps.mu.Unlock()
	return wp
}

// Pool is a persistent set of worker goroutines servicing chunked
// fan-outs. The caller participates as worker 0, so a Pool of procs p
// keeps p-1 goroutines parked between dispatches. A Pool serves one
// dispatch at a time; concurrent or nested dispatch attempts fall back
// to spawn-per-call transparently. Use NewPool; a Pool must not be
// copied after first use.
//
// Parking protocol: workers sleep on an epoch condvar. A dispatch
// publishes the job, advances the epoch and broadcasts; each worker
// wakes exactly once, runs its share, decrements the outstanding
// count, and goes straight back to waiting for the next epoch — only
// the last finisher wakes the dispatcher. One scheduling event per
// worker per fan-out is the whole point: a two-barrier rendezvous
// would schedule every worker a second time just to re-park it.
type Pool struct {
	procs int
	wg    sync.WaitGroup

	// busy serializes dispatches; closed marks shutdown intent. After
	// Close, busy is held forever so every later dispatch attempt
	// falls back to spawning.
	busy   atomic.Bool
	closed atomic.Bool

	// Worker parking: epoch advances once per dispatch under mu.
	mu    sync.Mutex
	cond  *sync.Cond
	epoch uint64

	// Completion: outstanding counts workers still running the current
	// job; the last one signals doneCond.
	outstanding atomic.Int64
	doneMu      sync.Mutex
	doneCond    *sync.Cond

	// The current job, published before the epoch advance; references
	// are cleared after every dispatch so a parked pool never keeps a
	// finished problem alive. shutdown is Close's exit job.
	shutdown bool
	n, p     int
	ctx      any
	fc       func(ctx any, w, lo, hi int)

	// faults records the current dispatch's first worker panic; the
	// dispatcher rethrows it (as a *WorkerPanic) once the fan-out has
	// quiesced and the pool has been released, so a fault fails the
	// dispatching call without wedging the barrier or killing the
	// process — the pool stays dispatchable afterward.
	faults panicSlot
}

// NewPool returns a pool of procs resident workers (clamped to at
// least 1). procs-1 goroutines are spawned immediately and park until
// work arrives or Close is called; the dispatching caller always
// serves as worker 0. A pool with procs == 1 runs everything inline
// and spawns nothing.
func NewPool(procs int) *Pool {
	if procs < 1 {
		procs = 1
	}
	pl := &Pool{procs: procs}
	pl.cond = sync.NewCond(&pl.mu)
	pl.doneCond = sync.NewCond(&pl.doneMu)
	pl.wg.Add(procs - 1)
	for w := 1; w < procs; w++ {
		go pl.workerLoop(w)
	}
	return pl
}

// Procs returns the pool's resident worker count (including the
// caller's worker-0 slot).
func (pl *Pool) Procs() int {
	if pl == nil {
		return 0
	}
	return pl.procs
}

// Close shuts the pool down deterministically: it waits for any
// in-flight dispatch to finish, releases the parked workers into an
// exit job, and returns only after every worker goroutine has
// terminated. A closed pool remains safe to use — dispatches fall
// back to spawn-per-call — and Close is idempotent. Close must not be
// called from inside a body the pool is running (it would wait on
// itself).
func (pl *Pool) Close() {
	if pl == nil || pl.closed.Swap(true) {
		return
	}
	// An in-flight dispatch usually finishes within a phase, but it can
	// legitimately run for a long time (a large rank on the pool), so
	// yield briefly and then park between retries instead of burning a
	// core until the dispatcher releases the pool.
	for spins := 0; !pl.busy.CompareAndSwap(false, true); spins++ {
		if spins < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if pl.procs > 1 {
		pl.shutdown = true
		pl.mu.Lock()
		pl.epoch++
		pl.mu.Unlock()
		pl.cond.Broadcast()
		pl.wg.Wait()
	}
	// busy stays held: the pool is dead, and every later tryAcquire
	// fails over to the spawn path.
}

func (pl *Pool) workerLoop(w int) {
	defer pl.wg.Done()
	seen := uint64(0)
	for {
		pl.mu.Lock()
		for pl.epoch == seen {
			pl.cond.Wait()
		}
		seen = pl.epoch
		pl.mu.Unlock()
		if pl.shutdown {
			return
		}
		pl.runGuarded(w)
		if pl.outstanding.Add(-1) == 0 {
			pl.doneMu.Lock()
			pl.doneCond.Signal()
			pl.doneMu.Unlock()
		}
	}
}

// runGuarded is run with panic containment: a panicking body is
// recovered on the worker, recorded in the dispatch's panic slot, and
// the worker still reaches the completion protocol (the outstanding
// decrement), so the dispatcher always completes and can rethrow. The
// no-fault cost is one open-coded defer and a nil recover per worker
// per dispatch — nothing allocates, preserving the zero-allocation Ctx
// contract.
func (pl *Pool) runGuarded(w int) {
	defer pl.faults.recoverInto()
	chaos.Point(chaos.PointWorker)
	pl.run(w)
}

// run executes worker w's share of the current job. When the job asks
// for more workers than the pool holds (p > procs), it is multiplexed:
// resident worker w plays job-worker roles w, w+procs, w+2·procs, … so
// per-worker buffer indexing and the chunk grid stay exactly as the
// caller sized them.
func (pl *Pool) run(w int) {
	for jw := w; jw < pl.p; jw += pl.procs {
		lo, hi := Chunk(pl.n, pl.p, jw)
		pl.fc(pl.ctx, jw, lo, hi)
	}
}

// tryAcquire claims the pool for one dispatch.
func (pl *Pool) tryAcquire() bool {
	return !pl.closed.Load() && pl.busy.CompareAndSwap(false, true)
}

// release clears the job references and frees the pool. Deferred from
// dispatch so a panicking worker-0 body cannot wedge the pool.
func (pl *Pool) release() {
	pl.ctx, pl.fc = nil, nil
	pl.busy.Store(false)
}

// dispatch releases the workers into the job fields (already set by
// the caller), runs worker 0's share inline, and waits for everyone.
// Job-field writes happen-before the workers' reads via mu (written
// before the epoch advance, read after observing it); the outstanding
// count plus doneMu order the workers' writes before the caller
// continues. Worker panics — including worker 0's own — are contained
// into the fault slot and rethrown by finishDispatch, so a fault
// unwinds a clean, reusable pool into the caller's recover.
func (pl *Pool) dispatch() {
	defer pl.finishDispatch()
	pl.outstanding.Store(int64(pl.procs - 1))
	pl.mu.Lock()
	pl.epoch++
	pl.mu.Unlock()
	pl.cond.Broadcast()
	pl.runGuarded(0)
}

// finishDispatch completes a dispatch: await the fan-out, take
// ownership of any recorded fault, free the pool, and only then
// re-panic. The fault leaves the shared slot strictly before release
// publishes the pool — once busy clears, another goroutine may start
// the next dispatch immediately, and with the old ordering (release,
// then read the slot) that dispatch's fault notes raced with, and
// could be stolen by, this one's rethrow. The panic itself still
// fires after release so it unwinds a clean, dispatchable pool.
func (pl *Pool) finishDispatch() {
	pl.await()
	wp := pl.faults.take()
	pl.release()
	if wp != nil {
		panic(wp)
	}
}

// await blocks until every worker has finished the current job.
func (pl *Pool) await() {
	pl.doneMu.Lock()
	for pl.outstanding.Load() != 0 {
		pl.doneCond.Wait()
	}
	pl.doneMu.Unlock()
}

// ForChunksCtx is the zero-allocation form of ForChunks: body must be
// a named (non-closure) function and reads its per-call state from
// ctx. Semantics match ForChunks(n, p, …) exactly, including the
// clamped worker count and the inline p == 1 path.
func (pl *Pool) ForChunksCtx(n, p int, ctx any, body func(ctx any, w, lo, hi int)) {
	p = Procs(p, n)
	if p <= 0 {
		return
	}
	if p == 1 {
		body(ctx, 0, 0, n)
		return
	}
	if pl == nil || !pl.tryAcquire() {
		forChunksCtxSpawn(n, p, ctx, body)
		return
	}
	pl.n, pl.p = n, p
	pl.ctx, pl.fc = ctx, body
	pl.dispatch()
}

// ForChunks mirrors the free ForChunks on the pool's resident workers.
// The pool side allocates nothing, but passing a closure literal still
// allocates it at the call site; steady-state paths use ForChunksCtx.
func (pl *Pool) ForChunks(n, p int, body func(w, lo, hi int)) {
	pl.ForChunksCtx(n, p, body, chunkAdapter)
}

func chunkAdapter(ctx any, w, lo, hi int) { ctx.(func(w, lo, hi int))(w, lo, hi) }

// forChunksCtxSpawn is the spawn-per-call fallback, used when the pool
// is nil, closed or busy with another dispatch. It wraps the free
// ForChunks — the closure this allocates is immaterial next to the
// per-call goroutines the spawn path pays anyway.
func forChunksCtxSpawn(n, p int, ctx any, body func(ctx any, w, lo, hi int)) {
	ForChunks(n, p, func(w, lo, hi int) { body(ctx, w, lo, hi) })
}

// Shared returns the process-wide pool, created on first use and sized
// to the hardware (max of GOMAXPROCS and NumCPU at creation). Every
// engine that is not given a pool of its own draws from it, so the
// per-package sync.Pool-backed top-level entry points all reuse one
// resident worker set. It is never closed; its parked workers are the
// process's resident processors in the paper's sense. Concurrent
// engines contend on it benignly — whoever arrives second spawns for
// that one fan-out.
func Shared() *Pool {
	sharedOnce.Do(func() {
		p := runtime.GOMAXPROCS(0)
		if c := runtime.NumCPU(); c > p {
			p = c
		}
		sharedPool = NewPool(p)
	})
	return sharedPool
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)
