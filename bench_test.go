// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the design choices DESIGN.md calls out.
//
// Two kinds of benchmarks live here:
//
//   - Paper-metric benchmarks (BenchmarkTableI*, BenchmarkFig*): each
//     iteration replays an experiment on the simulated machines and
//     reports the *modeled* metric (paper_ns/vertex — Cray C90 ns per
//     vertex) via b.ReportMetric. The wall-clock ns/op of these
//     measures the simulator, not the algorithm; the custom metric is
//     the reproduced paper number.
//
//   - Goroutine-track benchmarks (BenchmarkGoroutine*): real wall
//     clock of the shared-memory implementations on the host.
//
// Run with: go test -bench=. -benchmem
package listrank

import (
	"fmt"
	"math"
	"testing"

	"listrank/internal/core"
	"listrank/internal/list"
	"listrank/internal/randmate"
	"listrank/internal/rng"
	"listrank/internal/ruling"
	"listrank/internal/serial"
	"listrank/internal/stats"
	"listrank/internal/vecalg"
	"listrank/internal/vm"
	"listrank/internal/wyllie"
)

const benchN = 1 << 18 // simulated-experiment list length

func contentionFor(p int) float64 {
	cfg := vm.CrayC90()
	return cfg.ContentionFor(p)
}

func simulate(b *testing.B, procs int, f func(in *vecalg.Input)) {
	b.Helper()
	l := list.NewRandom(benchN, rng.New(1))
	var per float64
	for i := 0; i < b.N; i++ {
		cfg := vm.CrayC90()
		cfg.Procs = procs
		mach := vm.New(cfg, 16*benchN+4096)
		in := vecalg.Load(mach, l)
		f(in)
		per = mach.Nanoseconds() / float64(benchN)
	}
	b.ReportMetric(per, "paper_ns/vertex")
}

// ----- Table I: asymptotic ns/vertex across machines -----

func BenchmarkTableI_AlphaRankMemory(b *testing.B) {
	l := NewRandomList(benchN, 1)
	var per float64
	for i := 0; i < b.N; i++ {
		_, ns := SimulateAlpha(l, true, false)
		per = ns / float64(benchN)
	}
	b.ReportMetric(per, "paper_ns/vertex")
}

func BenchmarkTableI_C90SerialRank(b *testing.B) {
	simulate(b, 1, vecalg.SerialRank)
}

func BenchmarkTableI_C90SublistRank(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
			pr := vecalg.FromTunedP(benchN, p, contentionFor(p), 1)
			simulate(b, p, func(in *vecalg.Input) { vecalg.SublistRank(in, pr) })
		})
	}
}

func BenchmarkTableI_C90SublistScan(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
			pr := vecalg.FromTunedP(benchN, p, contentionFor(p), 1)
			simulate(b, p, func(in *vecalg.Input) { vecalg.SublistScan(in, pr) })
		})
	}
}

// ----- Table II / Fig. 1: the five algorithms on one processor -----

func BenchmarkFig1_Serial(b *testing.B) { simulate(b, 1, vecalg.SerialScan) }
func BenchmarkFig1_Wyllie(b *testing.B) { simulate(b, 1, vecalg.WyllieScan) }
func BenchmarkFig1_Sublist(b *testing.B) {
	pr := vecalg.FromTuned(benchN, 1)
	simulate(b, 1, func(in *vecalg.Input) { vecalg.SublistScan(in, pr) })
}
func BenchmarkFig1_MillerReif(b *testing.B) {
	simulate(b, 1, func(in *vecalg.Input) { vecalg.MillerReifScan(in, 1) })
}
func BenchmarkFig1_AndersonMiller(b *testing.B) {
	simulate(b, 1, func(in *vecalg.Input) { vecalg.AndersonMillerScan(in, 1, 128) })
}

// BenchmarkFig1_WyllieSawtooth samples the sawtooth: n just below and
// above a power of two differ by a full extra pass over the data.
func BenchmarkFig1_WyllieSawtooth(b *testing.B) {
	for _, n := range []int{(1 << 14) + 1, 1 << 15, (1 << 15) + 1} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l := list.NewRandom(n, rng.New(2))
			var per float64
			for i := 0; i < b.N; i++ {
				mach := vm.New(vm.CrayC90(), 16*n+4096)
				in := vecalg.Load(mach, l)
				vecalg.WyllieScan(in)
				per = mach.Nanoseconds() / float64(n)
			}
			b.ReportMetric(per, "paper_ns/vertex")
		})
	}
}

// ----- Fig. 3 / Fig. 11: multiprocessor scaling -----

func BenchmarkFig3_Speedup(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
			pr := vecalg.FromTunedP(benchN, p, contentionFor(p), 3)
			simulate(b, p, func(in *vecalg.Input) { vecalg.SublistScan(in, pr) })
		})
	}
}

func BenchmarkFig11_ScanAcrossN(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l := list.NewRandom(n, rng.New(4))
			pr := vecalg.FromTuned(n, 4)
			var per float64
			for i := 0; i < b.N; i++ {
				mach := vm.New(vm.CrayC90(), 16*n+4096)
				in := vecalg.Load(mach, l)
				vecalg.SublistScan(in, pr)
				per = mach.Nanoseconds() / float64(n)
			}
			b.ReportMetric(per, "paper_ns/vertex")
		})
	}
}

// ----- Fig. 9 / Fig. 10: the analysis machinery -----

func BenchmarkFig9_SampleGaps(b *testing.B) {
	r := rng.New(5)
	for i := 0; i < b.N; i++ {
		_ = stats.SampleGaps(10000, 199, r.Intn)
	}
}

func BenchmarkFig10_ScheduleOptimize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = vecalg.TunedParams(1 << 16)
	}
}

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

func BenchmarkGoroutine_Wyllie(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(6))
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wyllie.Scan(l)
	}
}

func BenchmarkGoroutine_MillerReif(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(6))
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = randmate.MillerReifScan(l, randmate.Options{Seed: uint64(i)})
	}
}

func BenchmarkGoroutine_AndersonMiller(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(6))
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = randmate.AndersonMillerScan(l, randmate.Options{Seed: uint64(i)})
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

// BenchmarkAblation_Phase2 compares the three reduced-list solvers.
func BenchmarkAblation_Phase2(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(8))
	for _, alg := range []struct {
		name string
		p2   core.Phase2Algorithm
	}{{"serial", core.Phase2Serial}, {"wyllie", core.Phase2Wyllie}, {"recursive", core.Phase2Recursive}} {
		b.Run(alg.name, func(b *testing.B) {
			b.SetBytes(8 << 20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = core.Scan(l, core.Options{Seed: uint64(i), Procs: 4, Phase2: alg.p2})
			}
		})
	}
}

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

// BenchmarkAblation_PackSchedule compares pack schedules on the
// simulated machine: the Eq. 4 optimum vs packing every round vs never
// packing (chasing completed tails to the end).
func BenchmarkAblation_PackSchedule(b *testing.B) {
	n := 1 << 18
	tuned := vecalg.TunedParams(n)
	for _, tc := range []struct {
		name     string
		schedule []int
	}{
		{"optimal", tuned.Schedule1},
		{"every-round", []int{1}},
		{"never", []int{1 << 30}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			pr := vecalg.SublistParams{M: tuned.M, Schedule1: tc.schedule, Schedule3: tc.schedule, Seed: 10}
			simulate(b, 1, func(in *vecalg.Input) { vecalg.SublistScan(in, pr) })
		})
	}
}

// BenchmarkAblation_BankConflicts measures the simulated cost of an
// adversarial same-bank layout versus the random layout the paper
// relies on.
func BenchmarkAblation_BankConflicts(b *testing.B) {
	cfg := vm.CrayC90()
	n := 1 << 16
	for _, tc := range []struct {
		name   string
		stride int
	}{{"random", 0}, {"same-bank", cfg.NumBanks}} {
		b.Run(tc.name, func(b *testing.B) {
			var per float64
			for i := 0; i < b.N; i++ {
				mach := vm.New(cfg, 2*n*cfg.NumBanks/cfg.NumBanks+2*n)
				base := mach.Alloc(2 * n)
				p := mach.Proc(0)
				idx := make([]int64, n)
				if tc.stride == 0 {
					r := rng.New(uint64(i))
					for j := range idx {
						idx[j] = int64(r.Intn(2 * n))
					}
				} else {
					for j := range idx {
						idx[j] = int64(j*tc.stride) % int64(2*n)
					}
				}
				dst := make([]int64, n)
				lp := p.Loop(n)
				lp.Gather(dst, base, idx)
				lp.End()
				per = p.Cycles / float64(n)
			}
			b.ReportMetric(per, "cycles/elem")
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

// BenchmarkAblation_Oversampling prices the §7 oversampling extension
// on the simulated C90: the tuned baseline against reserve fractions
// of 0.5 and 1.0. The paper predicted the bookkeeping would lose;
// paper_ns/vertex shows by how much.
func BenchmarkAblation_Oversampling(b *testing.B) {
	n := benchN
	l := list.NewRandom(n, rng.New(12))
	pr := vecalg.FromTuned(n, 12)
	run := func(b *testing.B, f func(in *vecalg.Input)) {
		var per float64
		for i := 0; i < b.N; i++ {
			mach := vm.New(vm.CrayC90(), 16*n+4096)
			in := vecalg.Load(mach, l)
			f(in)
			per = mach.Nanoseconds() / float64(n)
		}
		b.ReportMetric(per, "paper_ns/vertex")
	}
	b.Run("base", func(b *testing.B) {
		run(b, func(in *vecalg.Input) { vecalg.SublistScan(in, pr) })
	})
	for _, frac := range []float64{0.5, 1.0} {
		b.Run(fmt.Sprintf("frac=%.1f", frac), func(b *testing.B) {
			run(b, func(in *vecalg.Input) { vecalg.SublistScanOversampled(in, pr, frac, 0.25) })
		})
	}
}

// BenchmarkAblation_Deterministic measures the §6 claim: the
// deterministic ruling-set algorithm against the paper's randomized
// one, wall clock on the goroutine track.
func BenchmarkAblation_Deterministic(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(14))
	b.Run("ours", func(b *testing.B) {
		b.SetBytes(8 << 20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = core.Scan(l, core.Options{Seed: uint64(i), Procs: 4})
		}
	})
	b.Run("ruling-set", func(b *testing.B) {
		b.SetBytes(8 << 20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ruling.Scan(l, ruling.Options{Procs: 4})
		}
	})
}

// BenchmarkContraction_C90 reports the vectorized tree-contraction
// cycles per node on the simulated machine against the serial walk
// (the `contraction` experiment's headline, as a bench metric).
func BenchmarkContraction_C90(b *testing.B) {
	nLeaves := 1 << 15
	left, right, ops, vals := benchExpr(nLeaves, 31)
	n := len(left)
	b.Run("vector-rake", func(b *testing.B) {
		var per float64
		for i := 0; i < b.N; i++ {
			mach := vm.New(vm.CrayC90(), 24*n+8192)
			in := vecalg.LoadExpr(mach, left, right, ops, vals)
			vecalg.ContractEval(in, vecalg.FromTuned(2*n, 31))
			per = mach.Makespan() / float64(n)
		}
		b.ReportMetric(per, "paper_cycles/node")
	})
	b.Run("serial-walk", func(b *testing.B) {
		var per float64
		for i := 0; i < b.N; i++ {
			mach := vm.New(vm.CrayC90(), 1024)
			mach.Proc(0).ScalarChase(n, true)
			per = mach.Makespan() / float64(n)
		}
		b.ReportMetric(per, "paper_cycles/node")
	})
}

// benchExpr is a minimal random full-binary-expression builder for the
// contraction bench.
func benchExpr(nLeaves int, seed uint64) ([]int32, []int32, []int8, []int64) {
	n := 2*nLeaves - 1
	left := make([]int32, n)
	right := make([]int32, n)
	ops := make([]int8, n)
	vals := make([]int64, n)
	r := rng.New(seed)
	next := int32(1)
	type frame struct {
		v int32
		k int
	}
	stack := []frame{{0, nLeaves}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.k == 1 {
			left[f.v], right[f.v] = -1, -1
			vals[f.v] = int64(r.Intn(5)) - 2
			continue
		}
		if r.Intn(8) == 0 {
			ops[f.v] = 1
		}
		kl := 1 + r.Intn(f.k-1)
		l, rr := next, next+1
		next += 2
		left[f.v], right[f.v] = l, rr
		stack = append(stack, frame{l, kl}, frame{rr, f.k - kl})
	}
	return left, right, ops, vals
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
