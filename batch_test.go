package listrank

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func poolOf(sizes []int, seed uint64) []*List {
	pool := make([]*List, len(sizes))
	for i, n := range sizes {
		pool[i] = NewRandomList(n, seed+uint64(i))
	}
	return pool
}

// TestBatchPanicPropagatesError: a fault contained while serving a
// batch re-panics as the original error value — ErrPanic-wrapped, with
// the underlying message — not a bare string, so recover sites can
// classify it with errors.Is.
func TestBatchPanicPropagatesError(t *testing.T) {
	poisoned := NewRandomList(300, 1)
	poisoned.Next[poisoned.Head] = int64(poisoned.Len()) + 1
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("batch with a poisoned list did not panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrPanic) {
			t.Fatalf("batch panicked with %T (%v), want an ErrPanic-wrapped error", r, r)
		}
		if err.Error() == ErrPanic.Error() {
			t.Fatalf("batch panic lost the original message: %v", err)
		}
	}()
	RankAll([]*List{NewRandomList(100, 2), poisoned}, Options{})
}

func TestRankAllMatchesPerList(t *testing.T) {
	sizes := []int{1, 2, 17, 100, 1000, 5000, 3, 64, 2048}
	pool := poolOf(sizes, 7)
	for _, procs := range []int{1, 3, 16} {
		got := RankAll(pool, Options{Procs: procs})
		for i, l := range pool {
			want := RankWith(l, Options{Algorithm: Serial})
			if len(got[i]) != len(want) {
				t.Fatalf("procs=%d list %d: len %d want %d", procs, i, len(got[i]), len(want))
			}
			for v := range want {
				if got[i][v] != want[v] {
					t.Fatalf("procs=%d list %d: rank[%d] = %d, want %d", procs, i, v, got[i][v], want[v])
				}
			}
		}
	}
}

func TestScanAllMatchesPerList(t *testing.T) {
	pool := poolOf([]int{500, 1, 9000, 33}, 11)
	got := ScanAll(pool, Options{Procs: 2})
	for i, l := range pool {
		want := ScanWith(l, Options{Algorithm: Serial})
		for v := range want {
			if got[i][v] != want[v] {
				t.Fatalf("list %d: scan[%d] = %d, want %d", i, v, got[i][v], want[v])
			}
		}
	}
}

func TestBatchEmptyAndNarrowPool(t *testing.T) {
	if out := RankAll(nil, Options{}); len(out) != 0 {
		t.Fatalf("empty pool: %d results", len(out))
	}
	// Narrow pool (fewer lists than workers) takes the within-list
	// path; results must be identical.
	pool := poolOf([]int{100000, 70000}, 3)
	got := ScanAll(pool, Options{Procs: 8})
	for i, l := range pool {
		want := ScanWith(l, Options{Algorithm: Serial})
		for v := range want {
			if got[i][v] != want[v] {
				t.Fatalf("list %d: scan[%d] = %d, want %d", i, v, got[i][v], want[v])
			}
		}
	}
}

// TestBatchRespectsAlgorithmChoice: RankAll runs either Algorithm on
// the fleet's engines, and every answer must match the serial
// reference.
func TestBatchRespectsAlgorithmChoice(t *testing.T) {
	pool := poolOf([]int{2000, 2000, 2000, 2000}, 5)
	for _, alg := range []Algorithm{Serial, Sublist} {
		got := RankAll(pool, Options{Algorithm: alg, Procs: 2})
		for i, l := range pool {
			want := RankWith(l, Options{Algorithm: Serial})
			for v := range want {
				if got[i][v] != want[v] {
					t.Fatalf("%v list %d: rank[%d] = %d, want %d", alg, i, v, got[i][v], want[v])
				}
			}
		}
	}
}

func TestQuickBatch(t *testing.T) {
	f := func(seed uint64, count uint8, szRaw uint16, procsRaw uint8) bool {
		k := int(count)%20 + 1
		sizes := make([]int, k)
		s := seed
		for i := range sizes {
			s = s*6364136223846793005 + 1442695040888963407
			sizes[i] = int(s%uint64(int(szRaw)%3000+1)) + 1
		}
		pool := poolOf(sizes, seed)
		got := RankAll(pool, Options{Procs: int(procsRaw)%8 + 1, Seed: seed})
		for i, l := range pool {
			want := RankWith(l, Options{Algorithm: Serial})
			for v := range want {
				if got[i][v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchEdgeCases covers the degenerate inputs the dispatcher must
// route correctly: an empty pool, pools of single-element lists (the
// smallest bin's smallest problems), and the zero Options value.
func TestBatchEdgeCases(t *testing.T) {
	if out := RankAll(nil, Options{}); len(out) != 0 {
		t.Fatalf("nil pool: %d results", len(out))
	}
	if out := ScanAll([]*List{}, Options{}); len(out) != 0 {
		t.Fatalf("empty pool: %d results", len(out))
	}
	// Single-element lists: rank 0, scan 0, regardless of count.
	ones := poolOf([]int{1, 1, 1, 1, 1}, 13)
	for i, l := range ones {
		l.Value[0] = int64(i) + 5
	}
	for name, out := range map[string][][]int64{
		"rank": RankAll(ones, Options{}),
		"scan": ScanAll(ones, Options{}),
	} {
		if len(out) != len(ones) {
			t.Fatalf("%s: %d results, want %d", name, len(out), len(ones))
		}
		for i, r := range out {
			if len(r) != 1 || r[0] != 0 {
				t.Fatalf("%s list %d: %v, want [0]", name, i, r)
			}
		}
	}
	// The zero Options value (nil-equivalent: default algorithm, auto
	// everything) on a mixed pool.
	mixed := poolOf([]int{1, 2, 3000, 80000}, 29)
	var zero Options
	got := RankAll(mixed, zero)
	for i, l := range mixed {
		want := RankWith(l, Options{Algorithm: Serial})
		for v := range want {
			if got[i][v] != want[v] {
				t.Fatalf("zero Options list %d: rank[%d] = %d, want %d", i, v, got[i][v], want[v])
			}
		}
	}
}

// TestBatchConcurrentRankAll runs concurrent RankAll calls that all
// share the process-wide server: every batch must come back complete
// and correct even while the shards interleave requests from
// different batches into the same coalesced dispatches.
func TestBatchConcurrentRankAll(t *testing.T) {
	const callers = 6
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sizes := []int{100 + g, 2500, 1, 40000 + 1000*g, 700}
			pool := poolOf(sizes, uint64(g)*17)
			want := make([][]int64, len(pool))
			for i, l := range pool {
				want[i] = RankWith(l, Options{Algorithm: Serial})
			}
			for r := 0; r < 6; r++ {
				got := RankAll(pool, Options{Seed: uint64(r)})
				for i := range pool {
					for v := range want[i] {
						if got[i][v] != want[i][v] {
							t.Errorf("caller %d round %d list %d: rank[%d] = %d, want %d",
								g, r, i, v, got[i][v], want[i][v])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkBatch compares across-list and within-list scheduling on a
// pool: 256 lists of 16k vertices, total 4M.
func BenchmarkBatch(b *testing.B) {
	sizes := make([]int, 256)
	for i := range sizes {
		sizes[i] = 1 << 14
	}
	pool := poolOf(sizes, 21)
	b.Run("across-lists", func(b *testing.B) {
		b.SetBytes(256 * (8 << 14))
		for i := 0; i < b.N; i++ {
			_ = RankAll(pool, Options{Procs: 4})
		}
	})
	b.Run("within-each-list", func(b *testing.B) {
		b.SetBytes(256 * (8 << 14))
		for i := 0; i < b.N; i++ {
			for _, l := range pool {
				_ = RankWith(l, Options{Procs: 4})
			}
		}
	})
}
