package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// mustPanicWorker runs f and returns the *WorkerPanic it rethrows,
// failing the test if f completes or panics with anything else.
func mustPanicWorker(t *testing.T, f func()) *WorkerPanic {
	t.Helper()
	var wp *WorkerPanic
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("fan-out with a panicking body did not panic")
			}
			var ok bool
			if wp, ok = r.(*WorkerPanic); !ok {
				t.Fatalf("rethrown value is %T (%v), want *WorkerPanic", r, r)
			}
		}()
		f()
	}()
	return wp
}

// panicProbe is the Ctx-dispatch context for the containment tests:
// the body panics on the item/chunk holding trip, and counts every
// visit so quiescence can be asserted.
type panicProbe struct {
	trip    int
	visited []int32
}

func panicChunkBody(ctx any, _, lo, hi int) {
	pr := ctx.(*panicProbe)
	for i := lo; i < hi; i++ {
		if i == pr.trip {
			panic("injected: poisoned chunk")
		}
		atomic.AddInt32(&pr.visited[i], 1)
	}
}

// TestPoolWorkerPanicContained: a panic inside a pooled chunked
// dispatch must not kill the process or strand the completion
// protocol — the dispatcher rethrows the first fault as *WorkerPanic
// after the fan-out quiesces, preserving the original panic value.
func TestPoolWorkerPanicContained(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	const n = 1000
	pr := &panicProbe{trip: 700, visited: make([]int32, n)}
	wp := mustPanicWorker(t, func() { pl.ForChunksCtx(n, 4, pr, panicChunkBody) })
	if wp.Value != "injected: poisoned chunk" {
		t.Fatalf("WorkerPanic.Value = %v, want the original panic value", wp.Value)
	}
	if len(wp.Stack) == 0 {
		t.Error("WorkerPanic.Stack is empty, want the faulted worker's stack")
	}
}

// TestPoolReusableAfterFault is the pool-after-fault contract the
// serving layer stands on: after a worker panic mid-ForChunksCtx the
// pool must remain dispatchable (no barrier deadlock), leak no
// goroutines, and the warm zero-allocation dispatch path must still
// be allocation-free.
func TestPoolReusableAfterFault(t *testing.T) {
	before := runtime.NumGoroutine()
	pl := NewPool(4)
	const n = 4096
	good := &panicProbe{trip: -1, visited: make([]int32, n)}
	warm := func() { pl.ForChunksCtx(n, 4, good, panicChunkBody) }
	warm() // first rendezvous

	// Fault it — repeatedly, so a wedged slot from one fault would
	// surface as a deadlock or fallback on the next.
	for i := 0; i < 5; i++ {
		bad := &panicProbe{trip: n / 2, visited: make([]int32, n)}
		mustPanicWorker(t, func() { pl.ForChunksCtx(n, 4, bad, panicChunkBody) })

		// The pool must serve the next dispatch on its resident workers
		// with every item visited exactly once.
		for j := range good.visited {
			good.visited[j] = 0
		}
		warm()
		for j, v := range good.visited {
			if v != 1 {
				t.Fatalf("after fault %d: item %d visited %d times, want 1", i, j, v)
			}
		}
	}

	// Warm path still allocation-free after the faults.
	if allocs := testing.AllocsPerRun(10, warm); allocs != 0 {
		t.Errorf("ForChunksCtx after faults: %v allocs/op, want 0", allocs)
	}

	pl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before pool, %d after faults and Close", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFreeFanoutsContainPanics: the spawn-per-call fallbacks must
// contain worker panics exactly like the pool — an unrecovered panic
// on a spawned goroutine would kill the process.
func TestFreeFanoutsContainPanics(t *testing.T) {
	errBoom := errors.New("boom")
	wp := mustPanicWorker(t, func() {
		ForChunks(100, 4, func(_, lo, hi int) {
			if lo <= 50 && 50 < hi {
				panic(errBoom)
			}
		})
	})
	if !errors.Is(wp, errBoom) {
		t.Errorf("errors.Is through WorkerPanic = false, want true (Value %v)", wp.Value)
	}
	mustPanicWorker(t, func() {
		RunWorkers(4, func(w int, b *Barrier) {
			if w == 2 {
				panic("worker boom")
			}
			b.Wait()
		})
	})
}

// TestNestedFaultNotDoubleWrapped: a panic contained by a nested
// (fallback) fan-out and rethrown into an outer pool worker must
// surface to the outer dispatcher as the original *WorkerPanic, not a
// wrapper of a wrapper.
func TestNestedFaultNotDoubleWrapped(t *testing.T) {
	pl := NewPool(2)
	defer pl.Close()
	wp := mustPanicWorker(t, func() {
		pl.ForChunks(2, 2, func(w, lo, hi int) {
			// The pool is busy with the outer dispatch, so this inner
			// fan-out falls back to spawning — and panics there.
			pl.ForChunks(2, 2, func(_, _, _ int) { panic("inner fault") })
		})
	})
	if wp.Value != "inner fault" {
		t.Fatalf("WorkerPanic.Value = %v, want the innermost panic value", wp.Value)
	}
}
