package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolForChunksMatchesFree: pooled chunked fan-out must visit
// exactly the items, chunks and worker indices the free function does,
// including when the job asks for more workers than the pool holds
// (the multiplexed path).
func TestPoolForChunksMatchesFree(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		pl := NewPool(procs)
		for _, p := range []int{1, 2, 4, 8, 13} {
			const n = 1000
			visited := make([]int32, n)
			var workers sync.Map
			pl.ForChunks(n, p, func(w, lo, hi int) {
				workers.Store(w, true)
				wantLo, wantHi := Chunk(n, Procs(p, n), w)
				if lo != wantLo || hi != wantHi {
					t.Errorf("procs=%d p=%d w=%d: chunk [%d,%d), want [%d,%d)", procs, p, w, lo, hi, wantLo, wantHi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visited[i], 1)
				}
			})
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("procs=%d p=%d: index %d visited %d times", procs, p, i, v)
				}
			}
			distinct := 0
			workers.Range(func(k, _ any) bool {
				if k.(int) >= Procs(p, n) {
					t.Errorf("procs=%d p=%d: worker index %d out of range", procs, p, k.(int))
				}
				distinct++
				return true
			})
			if distinct != Procs(p, n) {
				t.Fatalf("procs=%d p=%d: %d distinct workers, want %d", procs, p, distinct, Procs(p, n))
			}
		}
		pl.Close()
	}
}

// TestPoolNilAndClosedFallBack: a nil pool and a closed pool must both
// behave exactly like the free functions.
func TestPoolNilAndClosedFallBack(t *testing.T) {
	var nilPool *Pool
	closed := NewPool(4)
	closed.Close()
	closed.Close() // idempotent
	for name, pl := range map[string]*Pool{"nil": nilPool, "closed": closed} {
		var sum int64
		pl.ForChunks(100, 4, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt64(&sum, int64(i))
			}
		})
		if sum != 99*100/2 {
			t.Fatalf("%s pool: sum = %d", name, sum)
		}
	}
}

// TestPoolNestedDispatchFallsBack: a fan-out issued from inside a body
// the same pool is running must not deadlock — the busy pool degrades
// the inner call to spawn-per-call.
func TestPoolNestedDispatchFallsBack(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	var total int64
	pl.ForChunks(4, 4, func(_, lo, hi int) {
		pl.ForChunks(100, 4, func(_, ilo, ihi int) {
			atomic.AddInt64(&total, int64(ihi-ilo))
		})
	})
	if total != 400 {
		t.Fatalf("nested fan-out covered %d items, want 400", total)
	}
}

// TestPoolConcurrentDispatchers hammers one pool from many goroutines:
// whoever wins the busy flag runs resident, everyone else spawns, and
// every result must stay correct.
func TestPoolConcurrentDispatchers(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	const goroutines = 8
	const calls = 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				var sum int64
				pl.ForChunks(257, 4, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt64(&sum, int64(i))
					}
				})
				if sum != 256*257/2 {
					t.Errorf("concurrent dispatch sum = %d", sum)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoolNoGoroutineLeak is the satellite's leak check: creating a
// pool, working it, and closing it must return the process to its
// previous goroutine count.
func TestPoolNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	pl := NewPool(8)
	for i := 0; i < 10; i++ {
		pl.ForChunks(1000, 8, func(_, lo, hi int) {})
	}
	pl.Close()
	// Close waits for worker exit, but the runtime may take a moment to
	// let exited goroutines leave the count.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before pool, %d after Close", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestPoolCtxDispatchZeroAlloc is the layer-0 half of the engines'
// steady-state contract: a Ctx-form dispatch on a warm pool performs
// zero heap allocations (named body, pointer-shaped ctx, resident
// workers).
func TestPoolCtxDispatchZeroAlloc(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	ctx := &poolAllocProbe{items: make([]int64, 4096)}
	run := func() { pl.ForChunksCtx(len(ctx.items), 4, ctx, poolAllocBody) }
	run() // warm the pool's first rendezvous
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("ForChunksCtx: %v allocs/op on a warm pool, want 0", allocs)
	}
}

type poolAllocProbe struct{ items []int64 }

func poolAllocBody(ctx any, w, lo, hi int) {
	items := ctx.(*poolAllocProbe).items
	for i := lo; i < hi; i++ {
		items[i]++
	}
}

// BenchmarkFanout compares per-fan-out overhead: spawn-per-call (the
// free ForChunks) against pooled dispatch, across job widths. The body
// is deliberately tiny so the measurement is the fan-out machinery
// itself — the quantity the paper's §5 schedule holds to a constant
// number of synchronizations per problem.
func BenchmarkFanout(b *testing.B) {
	const n = 1 << 10
	items := make([]int64, n)
	body := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			items[i]++
		}
	}
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("spawn/p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ForChunks(n, p, body)
			}
		})
		b.Run(fmt.Sprintf("pool/p=%d", p), func(b *testing.B) {
			pl := NewPool(p)
			defer pl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl.ForChunks(n, p, body)
			}
		})
		b.Run(fmt.Sprintf("pool-ctx/p=%d", p), func(b *testing.B) {
			pl := NewPool(p)
			defer pl.Close()
			ctx := &poolAllocProbe{items: items}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl.ForChunksCtx(n, p, ctx, poolAllocBody)
			}
		})
	}
}
