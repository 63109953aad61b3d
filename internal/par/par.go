// Package par provides the shared-memory parallelism runtime used by
// the goroutine track of the algorithms: chunked parallel-for over
// index ranges (the MIMD analogue of loop-raking virtual processors
// onto element processors, paper §1.1), a reusable barrier for the
// synchronous rounds of pointer-jumping algorithms, and the persistent
// worker Pool (pool.go) that keeps a fixed set of resident workers
// parked between fan-outs — the paper's §5 resident processors. The
// free functions below spawn goroutines per call; the engine layers
// dispatch on a Pool and fall back to these under contention, while
// the reference algorithms use them directly.
package par

import (
	"sync"

	"listrank/internal/chaos"
)

// Procs clamps a requested processor count to at least 1 and at most n
// (no point in more workers than work items).
func Procs(p, n int) int {
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	return p
}

// Chunk returns the half-open range [lo, hi) of items assigned to
// worker w of p when n items are divided as evenly as possible, with
// the first n%p workers receiving one extra item.
func Chunk(n, p, w int) (lo, hi int) {
	base := n / p
	rem := n % p
	if w < rem {
		lo = w * (base + 1)
		hi = lo + base + 1
		return lo, hi
	}
	lo = rem*(base+1) + (w-rem)*base
	hi = lo + base
	return lo, hi
}

// ForChunks runs body(w, lo, hi) on p goroutines, where [lo, hi) is
// worker w's chunk of [0, n). With p == 1 it runs inline with no
// goroutine, so single-processor measurements carry no scheduling
// overhead. It returns when all workers have finished.
//
// Worker panics are contained: every spawned worker runs to the
// WaitGroup even when its body panics, and the first fault is rethrown
// on the calling goroutine as a *WorkerPanic once the fan-out has
// quiesced (an unrecovered panic on a spawned goroutine would
// otherwise kill the process). The p == 1 inline path panics directly,
// as a plain function call would. RunWorkers contains the same way.
func ForChunks(n, p int, body func(w, lo, hi int)) {
	p = Procs(p, n)
	if p == 1 {
		body(0, 0, n)
		return
	}
	var faults panicSlot
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		lo, hi := Chunk(n, p, w)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer faults.recoverInto()
			chaos.Point(chaos.PointWorker)
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	faults.rethrow()
}

// Barrier is a reusable synchronization barrier for a fixed set of
// workers. Each call to Wait blocks until all n workers have called
// Wait, then releases them together; the barrier then resets for the
// next round. The zero value is not usable; use NewBarrier.
type Barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	phase uint64
}

// NewBarrier returns a barrier for n workers. It panics if n < 1.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("par: barrier size must be >= 1")
	}
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all workers have reached the barrier.
func (b *Barrier) Wait() {
	b.mu.Lock()
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for b.phase == phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// abandon removes one worker from the barrier's roster: a worker whose
// body panicked will never call Wait again, and without this its peers
// would block forever waiting for it. If the abandoning worker was the
// last one the current round was waiting on, the round completes.
// Subsequent rounds proceed with the reduced roster — the results are
// garbage, but the fan-out quiesces so the dispatcher can rethrow the
// fault and the caller can discard them.
func (b *Barrier) abandon() {
	b.mu.Lock()
	b.n--
	if b.n > 0 && b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

// RunWorkers starts p goroutines running body(w) with a shared barrier
// sized for them, and returns when all are done. It is the harness for
// round-synchronous algorithms: body calls barrier.Wait between rounds.
// Worker panics are contained and rethrown on the caller (see
// ForChunks); a panicking worker abandons the barrier so its peers'
// Waits release instead of deadlocking.
func RunWorkers(p int, body func(w int, b *Barrier)) {
	if p < 1 {
		p = 1
	}
	b := NewBarrier(p)
	if p == 1 {
		body(0, b)
		return
	}
	var faults panicSlot
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					faults.note(r)
					b.abandon()
				}
			}()
			chaos.Point(chaos.PointWorker)
			body(w, b)
		}(w)
	}
	wg.Wait()
	faults.rethrow()
}
