// Benchmarks of the goroutine track: real wall clock of the sublist
// engine and the serial walk on the host, the engine ablations
// DESIGN.md calls out, and the engine-reuse and lane-width sweeps.
// The paper's tables and figures, the reference algorithms' legs and
// the simulator ablations are benchmarked in package repro.
//
// Run with: go test -bench=. -benchmem
package listrank

import (
	"fmt"
	"math"
	"testing"

	"listrank/internal/core"
	"listrank/internal/list"
	"listrank/internal/rng"
	"listrank/internal/serial"
)

// ----- Goroutine track: real wall clock on the host -----

func BenchmarkGoroutine_Serial(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(6))
	dst := make([]int64, l.Len())
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial.ScanInto(dst, l)
	}
}

func BenchmarkGoroutine_Sublist(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
			l := list.NewRandom(1<<20, rng.New(6))
			b.SetBytes(8 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = core.Scan(l, core.Options{Seed: uint64(i), Procs: p})
			}
		})
	}
}

// ----- Ablations -----

// BenchmarkAblation_M sweeps the splitter count around the default,
// exposing the §4 tradeoff between load balance and per-sublist
// overheads.
func BenchmarkAblation_M(b *testing.B) {
	n := 1 << 20
	l := list.NewRandom(n, rng.New(9))
	auto := core.DefaultM(n)
	for _, m := range []int{auto / 8, auto / 2, auto, auto * 2, auto * 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.SetBytes(8 << 20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = core.Scan(l, core.Options{Seed: uint64(i), Procs: 4, M: m})
			}
		})
	}
}

// BenchmarkAblation_EncodedRank measures the §3 single-gather
// encoding on the goroutine track: ranking on the narrow 8-byte word
// against the wide 16-byte {link, value} pair (DisableEncoding), both
// with one gather per link and Phase 3 streamed, so the difference is
// the footprint the encoding saves.
func BenchmarkAblation_EncodedRank(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(11))
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"encoded", false}, {"wide", true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(8 << 20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = core.Ranks(l, core.Options{Seed: uint64(i), Procs: 4, DisableEncoding: tc.disable})
			}
		})
	}
}

// The generic monoid scan against its serial walk and the int64 Scan:
// the price of the type parameter and arbitrary operator, on the
// paper's benchmark workload.
func BenchmarkScanValues(b *testing.B) {
	n := 1 << 20
	l := NewRandomList(n, 77)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 9)
	}
	add := func(a, b int64) int64 { return a + b }
	b.Run("generic-int64", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			out := ScanValues(l, vals, add, 0, Options{Seed: uint64(i)})
			if out[l.Head] != 0 {
				b.Fatal("wrong head prefix")
			}
		}
	})
	b.Run("generic-serial", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			_ = ScanValues(l, vals, add, 0, Options{Algorithm: Serial})
		}
	})
	type pair struct{ Sum, Min int64 }
	pvals := make([]pair, n)
	for i := range pvals {
		pvals[i] = pair{Sum: int64(i%9) - 4, Min: min(int64(i%9)-4, 0)}
	}
	comb := func(a, b pair) pair {
		m := a.Min
		if s := a.Sum + b.Min; s < m {
			m = s
		}
		return pair{a.Sum + b.Sum, m}
	}
	b.Run("generic-struct-monoid", func(b *testing.B) {
		b.SetBytes(int64(16 * n))
		for i := 0; i < b.N; i++ {
			_ = ScanValues(l, pvals, comb, pair{}, Options{Seed: uint64(i)})
		}
	})
	copy(l.Value, vals)
	b.Run("specialized-int64", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			_ = ScanWith(l, Options{Seed: uint64(i)})
		}
	})

	// Both sides of scanValuesRankedMin, where ScanValues switches from
	// the walk to the ranked path: 2^16 walks and 2^22 ranks, under a
	// cheap operator and a costlier one (a 2×2 int64 matrix product).
	type mat [4]int64
	mul := func(a, b mat) mat {
		return mat{
			a[0]*b[0] + a[1]*b[2], a[0]*b[1] + a[1]*b[3],
			a[2]*b[0] + a[3]*b[2], a[2]*b[1] + a[3]*b[3],
		}
	}
	for _, n := range []int{1 << 16, 1 << 22} {
		l := NewRandomList(n, 78)
		adds := make([]int64, n)
		mats := make([]mat, n)
		for i := range adds {
			adds[i] = int64(i % 9)
			mats[i] = mat{int64(i % 3), 1, int64(i % 2), 1}
		}
		for _, procs := range []int{1, 2} {
			opt := Options{Procs: procs}
			b.Run(fmt.Sprintf("add/n=%d/procs=%d", n, procs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = ScanValues(l, adds, add, 0, opt)
				}
				b.ReportMetric(float64(b.Elapsed())/float64(b.N*n), "ns/elem")
			})
			b.Run(fmt.Sprintf("mat2/n=%d/procs=%d", n, procs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = ScanValues(l, mats, mul, mat{1, 0, 0, 1}, opt)
				}
				b.ReportMetric(float64(b.Elapsed())/float64(b.N*n), "ns/elem")
			})
		}
	}
}

// ----- Engine reuse: the zero-steady-state-allocation contract -----

// BenchmarkEngineReuse measures the sublist algorithm on a warm Engine
// with caller-provided result storage: one goroutine streaming
// problems through one engine — the single-stream steady state the
// real serving layer (listrank.Server) runs per fleet worker, measured
// here in isolation. The contract is 0 allocs/op at both procs legs:
// every buffer (vp table, splitter draw, encoded words, Phase 2
// storage) comes from the engine's arena, and
// the procs=4 fan-outs dispatch closure-free onto an engine-owned
// worker pool. BenchmarkServerThroughput (server_test.go) measures the
// full serving scenario — admission, coalescing and completion on a
// warm fleet — and keeps the same 0 allocs/op; compare
// BenchmarkGoroutine_Sublist, which allocates its result and borrows a
// pooled engine per call.
func BenchmarkEngineReuse(b *testing.B) {
	l := NewRandomList(1<<20, 6)
	dst := make([]int64, l.Len())
	for _, p := range []int{1, 4} {
		opt := Options{Seed: 6, Procs: p}
		// An engine-owned worker pool sized to the job: the procs > 1
		// legs report 0 allocs/op regardless of the host's core count.
		newEngine := func() *Engine {
			e := NewEngine()
			if p > 1 {
				pool := NewWorkerPool(p)
				b.Cleanup(pool.Close)
				e.SetPool(pool)
			}
			return e
		}
		b.Run(fmt.Sprintf("scan/procs=%d", p), func(b *testing.B) {
			e := newEngine()
			e.ScanInto(dst, l, opt) // warm the arena
			b.SetBytes(8 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ScanInto(dst, l, opt)
			}
		})
		b.Run(fmt.Sprintf("rank/procs=%d", p), func(b *testing.B) {
			e := newEngine()
			e.RankInto(dst, l, opt) // warm the arena
			b.SetBytes(8 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RankInto(dst, l, opt)
			}
		})
	}
}

// BenchmarkEngineReuseBatch is the RankAll regime: a wide pool of
// medium lists, one engine per worker reused across its whole share.
func BenchmarkEngineReuseBatch(b *testing.B) {
	const nLists, each = 64, 1 << 14
	pool := make([]*List, nLists)
	for i := range pool {
		pool[i] = NewRandomList(each, uint64(i))
	}
	b.SetBytes(8 * nLists * each)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RankAll(pool, Options{Seed: uint64(i), Procs: 4})
	}
}

// BenchmarkLaneWidth sweeps the chase-kernel lane width (the software
// analog of the paper's vector lanes, internal/kernel) on a warm
// engine: "warm" is a cache-resident list, "cold" is far past the
// last-level cache of typical hosts, where each link is a DRAM miss
// and the lanes' overlapped misses pay off most. The plain legs rank;
// the "-scan" legs run the int32-valued addition scan, which shares the
// narrow encoded word; the "-scanop" legs run a max scan, which chases
// the wide {link, value} pair. K=1 is the serial single-cursor oracle;
// K=0 is the tuned per-regime default. Results are identical at every width. CI's
// bench-smoke leg records the warm sweeps in BENCH_kernels.json via
// cmd/benchjson; cmd/tune -lanes runs the rank sweep standalone with
// per-regime recommendations.
func BenchmarkLaneWidth(b *testing.B) {
	benchMax := func(x, y int64) int64 { return max(x, y) }
	for _, tc := range []struct {
		name string
		n    int
	}{{"warm", 1 << 16}, {"cold", 1 << 23}} {
		// Built lazily on the first matched sub-benchmark, so running
		// only the warm legs (as CI does) never pays for the cold list.
		var l *List
		var dst []int64
		var e *Engine
		setup := func() {
			if l != nil {
				return
			}
			l = NewRandomList(tc.n, 6)
			for i := range l.Value {
				l.Value[i] = int64(i%201) - 100
			}
			dst = make([]int64, tc.n)
			e = NewEngine()
			e.RankInto(dst, l, Options{Seed: 6, Procs: 1}) // warm the arena
		}
		for _, op := range []string{"", "-scan", "-scanop"} {
			for _, k := range []int{1, 2, 4, 8, 16, 32, 0} {
				b.Run(fmt.Sprintf("%s%s/K=%d", tc.name, op, k), func(b *testing.B) {
					setup()
					opt := Options{Seed: 6, Procs: 1, LaneWidth: k}
					b.SetBytes(int64(8 * tc.n))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						switch op {
						case "-scan":
							e.ScanInto(dst, l, opt)
						case "-scanop":
							e.ScanOpInto(dst, l, benchMax, math.MinInt64, opt)
						default:
							e.RankInto(dst, l, opt)
						}
					}
				})
			}
		}
	}
}
