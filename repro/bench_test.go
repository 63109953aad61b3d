// Benchmarks regenerating every table and figure of the paper, plus
// the reference algorithms' goroutine legs and the ablations that run
// on the simulated machines.
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
//     clock of the reference algorithms on the host. The sublist
//     engine's and the serial walk's legs are in package listrank.
//
// Run with: go test -bench=. -benchmem ./repro
package repro

import (
	"fmt"
	"testing"

	"listrank"
	"listrank/internal/core"
	"listrank/internal/list"
	"listrank/internal/randmate"
	"listrank/internal/rng"
	"listrank/internal/ruling"
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
	l := listrank.NewRandomList(benchN, 1)
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

// ----- Ablations -----

// BenchmarkAblation_PackSchedule compares pack schedules on the
// simulated machine: the Eq. 4 optimum vs packing every round vs never
// packing (chasing completed tails to the end). The never leg packs
// once, after the draw's longest sublist has finished: its one round
// is as many steps as the every-round leg takes rounds at the same
// seed.
func BenchmarkAblation_PackSchedule(b *testing.B) {
	n := 1 << 18
	tuned := vecalg.TunedParams(n)
	params := func(schedule []int) vecalg.SublistParams {
		return vecalg.SublistParams{M: tuned.M, Schedule1: schedule, Schedule3: schedule, Seed: 10}
	}
	for _, tc := range []struct {
		name     string
		schedule []int
	}{
		{"optimal", tuned.Schedule1},
		{"every-round", []int{1}},
		{"never", []int{packRounds(params([]int{1}))}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			pr := params(tc.schedule)
			simulate(b, 1, func(in *vecalg.Input) { vecalg.SublistScan(in, pr) })
		})
	}
}

// packRounds runs pr once on simulate's list and machine and returns
// the larger of its Phase 1 and Phase 3 round counts (one pack per
// round).
func packRounds(pr vecalg.SublistParams) int {
	c := &struct {
		Steps1, ElemSteps1, Packs1, PackElems1 int64
		Steps3, ElemSteps3, Packs3, PackElems3 int64
	}{}
	vecalg.DebugCounters = c
	defer func() { vecalg.DebugCounters = nil }()
	cfg := vm.CrayC90()
	cfg.Procs = 1
	in := vecalg.Load(vm.New(cfg, 16*benchN+4096), list.NewRandom(benchN, rng.New(1)))
	vecalg.SublistScan(in, pr)
	return int(max(c.Packs1, c.Packs3))
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
