package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestChunkCoversRange(t *testing.T) {
	f := func(nn uint16, pp uint8) bool {
		n := int(nn % 1000)
		p := int(pp%16) + 1
		covered := 0
		prevHi := 0
		for w := 0; w < p; w++ {
			lo, hi := Chunk(n, p, w)
			if lo != prevHi {
				return false // chunks must tile contiguously
			}
			if hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChunkBalance(t *testing.T) {
	// Sizes differ by at most one.
	for _, tc := range []struct{ n, p int }{{10, 3}, {100, 7}, {5, 5}, {16, 4}, {1, 8}} {
		minSz, maxSz := 1<<30, -1
		for w := 0; w < tc.p; w++ {
			lo, hi := Chunk(tc.n, tc.p, w)
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if maxSz-minSz > 1 {
			t.Fatalf("n=%d p=%d chunk sizes range [%d,%d]", tc.n, tc.p, minSz, maxSz)
		}
	}
}

func TestProcs(t *testing.T) {
	if Procs(0, 10) != 1 || Procs(-3, 10) != 1 {
		t.Fatal("Procs must clamp to at least 1")
	}
	if Procs(100, 10) != 10 {
		t.Fatal("Procs must clamp to at most n")
	}
	if Procs(4, 10) != 4 {
		t.Fatal("Procs must pass through valid values")
	}
}

func TestForChunksVisitsAllOnce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 13} {
		const n = 1000
		visited := make([]int32, n)
		ForChunks(n, p, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visited[i], 1)
			}
		})
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("p=%d index %d visited %d times", p, i, v)
			}
		}
	}
}

func TestForChunksZeroItems(t *testing.T) {
	called := false
	ForChunks(0, 4, func(w, lo, hi int) {
		if hi > lo {
			called = true
		}
	})
	if called {
		t.Fatal("ForChunks(0, …) ran a non-empty chunk")
	}
}

func TestBarrierRounds(t *testing.T) {
	const workers = 8
	const rounds = 50
	var counter int64
	RunWorkers(workers, func(w int, b *Barrier) {
		for r := 0; r < rounds; r++ {
			atomic.AddInt64(&counter, 1)
			b.Wait()
			// After the barrier every worker must observe all
			// increments from this round.
			if got := atomic.LoadInt64(&counter); got < int64((r+1)*workers) {
				t.Errorf("round %d: counter %d < %d", r, got, (r+1)*workers)
			}
			b.Wait()
		}
	})
	if counter != workers*rounds {
		t.Fatalf("counter = %d, want %d", counter, workers*rounds)
	}
}

func TestBarrierSingleWorker(t *testing.T) {
	b := NewBarrier(1)
	for i := 0; i < 10; i++ {
		b.Wait() // must never block
	}
}

func TestBarrierReuseStress(t *testing.T) {
	// Workers alternate between writing their round number and reading
	// everyone's; with a correct barrier no worker ever observes a
	// stale round from another worker.
	const workers = 4
	const rounds = 200
	b := NewBarrier(workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	var slots [workers]int64
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				atomic.StoreInt64(&slots[w], int64(r))
				b.Wait()
				for other := 0; other < workers; other++ {
					if got := atomic.LoadInt64(&slots[other]); got != int64(r) {
						t.Errorf("worker %d round %d saw worker %d at round %d", w, r, other, got)
						return
					}
				}
				b.Wait()
			}
		}(w)
	}
	wg.Wait()
}

func TestNewBarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(0)
}
