package listrank

import (
	"fmt"
	"sync"

	"listrank/internal/core"
	"listrank/internal/list"
	"listrank/internal/par"
	"listrank/internal/serial"
)

// WorkerPool is the persistent worker-pool runtime — layer 0 of the
// arena architecture. A pool owns a fixed set of resident worker
// goroutines that park between fan-outs, so an engine dispatching its
// parallel phases onto one pays an unpark plus a rendezvous per phase
// instead of spawning (and garbage-collecting) goroutines per call.
// Engines that are not given a pool share the process-wide one, sized
// to the hardware; give an engine its own pool (sized to its Procs)
// when a goroutine streams problems at a fixed parallelism and wants
// the zero-allocation steady state independent of what the rest of
// the process is doing. Close shuts a pool down deterministically;
// the reproduction's reference algorithms (package listrank/repro)
// intentionally stay on spawn-per-call so their measured costs are the
// paper baselines'.
type WorkerPool = par.Pool

// NewWorkerPool returns a pool of procs resident workers (the
// dispatching caller counts as one of them, so procs-1 goroutines are
// created). Close it when done; a closed or contended pool degrades
// to spawn-per-call, never deadlocks.
func NewWorkerPool(procs int) *WorkerPool { return par.NewPool(procs) }

// SharedWorkerPool returns the process-wide pool every engine uses by
// default. It is created on first use, sized to the hardware, and
// never closed.
func SharedWorkerPool() *WorkerPool { return par.Shared() }

// Engine is a reusable rank/scan engine: it owns the scratch arena —
// the virtual-processor table, splitter buffers, encoded words and
// Phase 2 storage — that a run of the sublist algorithm needs, so that
// a stream of problems can be serviced with zero steady-state heap
// allocations. The paper's
// accounting (Table II) counts the 5p+c words of working space but
// never the cost of re-acquiring them per problem, because a vector
// machine allocates its working vectors once; Engine restores that
// discipline on the goroutine track.
//
// An engine runs the sublist algorithm, or the serial walk when
// Options.Algorithm is Serial.
//
// An Engine may be reused across lists of any size and any Options,
// growing its buffers geometrically to the largest problem seen. It
// must not be used concurrently; for concurrent callers either hold
// one Engine per goroutine or use the package-level RankInto /
// ScanInto / ScanOpInto functions, which draw engines from an internal
// pool.
//
// Zero-allocation steady state holds once the arena is warm: parallel
// phases dispatch closure-free onto resident pool workers instead of
// spawning goroutines per call. At Procs > 1 the guarantee requires a
// pool at least Procs wide with no competing dispatcher — an
// engine-owned pool via SetPool always qualifies; the default
// process-wide shared pool is hardware-sized and qualifies while this
// engine is the only one fanning out. An undersized or contended pool
// degrades fan-outs to spawn-per-call (costing the per-call
// allocations, never correctness).
//
// Engine is the middle layer of the three-layer arena architecture
// (internal/arena → core.Scratch wrapped by this type → the
// application engines): tree.Engine and graph.Engine each embed one of
// these instead of drawing from the global pool, so the Euler-tour and
// connectivity pipelines reuse a single arena stack end to end. See
// DESIGN.md, "The three-layer arena architecture" and "Layer 0: the
// worker-pool runtime".
type Engine struct {
	sc *core.Scratch
	// il is the reused internal list header: building it in place
	// keeps the view conversion off the heap.
	il list.List
}

// NewEngine returns an empty engine; buffers are allocated lazily and
// amortized across calls. It dispatches parallel phases on the shared
// worker pool until SetPool gives it one of its own.
func NewEngine() *Engine { return &Engine{sc: core.NewScratch()} }

// SetPool selects the worker pool this engine's parallel phases
// dispatch on — the engine owns a pool the same way it owns its
// arena. nil (the default) selects the process-wide shared pool. The
// engine never closes the pool; the caller that created it does.
func (e *Engine) SetPool(pl *WorkerPool) { e.sc.SetPool(pl) }

func (e *Engine) view(l *List) *list.List {
	e.il = list.List{Next: l.Next, Value: l.Value, Head: l.Head}
	return &e.il
}

// release drops the view's references to the caller's arrays so a
// held or pooled engine never keeps a finished problem's list alive.
func (e *Engine) release() {
	e.il = list.List{}
}

func checkDst(dst []int64, l *List, what string) {
	if len(dst) != l.Len() {
		panic(fmt.Sprintf("listrank: %s: len(dst) = %d, want list length %d", what, len(dst), l.Len()))
	}
}

// RankInto writes the rank of every vertex of l into dst, which must
// have length l.Len(). It is the allocation-free counterpart of
// RankWith: result storage is the caller's and working space is the
// engine's. A list that is not one chain panics with an error for
// which errors.Is(err, ErrNotList) holds; the engine keeps no
// reference to it and stays usable.
func (e *Engine) RankInto(dst []int64, l *List, opt Options) {
	checkDst(dst, l, "RankInto")
	if l.Len() == 0 {
		return
	}
	il := e.view(l)
	defer e.release()
	if opt.Algorithm == Serial {
		serial.RanksInto(dst, il)
	} else {
		core.RanksInto(dst, il, coreOptions(opt), e.sc)
	}
}

// ScanInto writes the exclusive integer-addition scan of l into dst,
// which must have length l.Len(): dst[v] is the sum of the values of
// all vertices strictly preceding v, 0 at the head. A list that is not
// one chain is refused as by RankInto.
func (e *Engine) ScanInto(dst []int64, l *List, opt Options) {
	checkDst(dst, l, "ScanInto")
	if l.Len() == 0 {
		return
	}
	il := e.view(l)
	defer e.release()
	if opt.Algorithm == Serial {
		serial.ScanInto(dst, il)
	} else {
		core.ScanInto(dst, il, coreOptions(opt), e.sc)
	}
}

// ScanOpInto writes the exclusive scan of l under an arbitrary
// associative operator into dst, which must have length l.Len(),
// combining strictly preceding values in list order (safe for
// non-commutative operators). A list that is not one chain is refused
// as by RankInto.
func (e *Engine) ScanOpInto(dst []int64, l *List, op func(a, b int64) int64, identity int64, opt Options) {
	checkDst(dst, l, "ScanOpInto")
	if l.Len() == 0 {
		return
	}
	il := e.view(l)
	defer e.release()
	if opt.Algorithm == Serial {
		serial.ScanOpInto(dst, il, op, identity)
	} else {
		core.ScanOpInto(dst, il, op, identity, coreOptions(opt), e.sc)
	}
}

// enginePool backs the package-level entry points: Rank, Scan,
// RankWith, ScanWith, ScanOpWith and the *Into functions below all
// borrow a warm engine per call, so even callers that never construct
// an Engine amortize working-space allocation across calls.
var enginePool = sync.Pool{New: func() any { return NewEngine() }}

func getEngine() *Engine  { return enginePool.Get().(*Engine) }
func putEngine(e *Engine) { enginePool.Put(e) }

// RankInto is the allocation-free top-level entry point for ranking:
// it writes into caller-provided storage using a pooled engine's
// working space. dst must have length l.Len(). A list that is not one
// chain panics with an error for which errors.Is(err, ErrNotList)
// holds.
func RankInto(dst []int64, l *List, opt Options) {
	e := getEngine()
	e.RankInto(dst, l, opt)
	putEngine(e)
}

// ScanInto is the allocation-free top-level entry point for the
// integer-addition scan; see Engine.ScanInto.
func ScanInto(dst []int64, l *List, opt Options) {
	e := getEngine()
	e.ScanInto(dst, l, opt)
	putEngine(e)
}

// ScanOpInto is the allocation-free top-level entry point for the
// generic-operator scan; see Engine.ScanOpInto.
func ScanOpInto(dst []int64, l *List, op func(a, b int64) int64, identity int64, opt Options) {
	e := getEngine()
	e.ScanOpInto(dst, l, op, identity, opt)
	putEngine(e)
}
