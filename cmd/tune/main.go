// Command tune exposes the §4.2–§4.4 cost-model machinery: it tunes
// the sublist count m and first pack point S1 for a range of list
// lengths and processor counts, prints the resulting schedules and
// predicted times, and fits the cubic-in-log(n) polynomials the paper
// uses to pick parameters at run time.
//
// It also tunes the parameters the cost model cannot see because they
// belong to the host rather than the algorithm. -lanes measures the
// real engine on this machine, jointly over the target sublist length
// L (m = n/L splitters; core.DefaultM persists one L) and the
// chase-kernel lane width K (how many independent sublist cursors each
// worker keeps in flight, the software analog of the paper's vector
// lanes, see internal/kernel), because longer sublists change how
// often a lane retires and refills. It prints the measured table per
// size, the best L and K per size and the one L that is closest to
// every size's best, then times the serial walk against the engine
// around the serial cutoff, reps interleaved, and prints each cell's
// quartiles and the crossover where they separate. Feed a winning K
// to Options.LaneWidth or a winning m to Options.M; the persisted
// defaults are kernel.DefaultWidth, and sublistLen and
// defaultSerialCutoff in internal/core.
//
// Usage:
//
//	tune [-n 1048576] [-procs 1] [-fit] [-sweep] [-lanes]
//
// -sweep tunes across a geometric range of lengths; -fit additionally
// fits and prints the polylog parameter polynomials (§4.4); -lanes
// runs the measured sublist-length and lane-width sweep instead of the
// cost model.
package main

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"time"

	"listrank/internal/core"
	"listrank/internal/list"
	"listrank/internal/model"
	"listrank/internal/par"
	"listrank/internal/rng"
	"listrank/internal/serial"
	"listrank/internal/vm"
)

// laneSweepWidths and sweepSublistLens are the lane widths K and the
// target sublist lengths L (m = n/L) -lanes measures.
var (
	laneSweepWidths  = []int{1, 2, 4, 8, 16, 32}
	sweepSublistLens = []int{16, 32, 64, 128, 256, 512, 1024}
)

// laneSweep measures ranking time across sublist lengths and lane
// widths on this host: one warm arena on its own pool, the median
// wall clock of a few reps per cell, identical seeds (the results
// depend on neither; only the work split and the memory-level
// parallelism do). Then it prints the serial/engine crossover.
func laneSweep(sizes []int, procs int) {
	fmt.Printf("sublist-length x lane-width sweep (procs=%d, rank ns/vertex, m = n/L, median of 3 reps — 7 for n <= 2^18 — of >= 2^20 vertices):\n", procs)
	pool := par.NewPool(procs)
	defer pool.Close()
	sc := core.NewScratch()
	sc.SetPool(pool)
	// slow[i] holds, per size, sublist length i's best time over K
	// relative to that size's best cell.
	slow := make([][]float64, len(sweepSublistLens))
	for _, n := range sizes {
		l := list.NewRandom(n, rng.New(11))
		dst := make([]int64, n)
		reps := 3
		if n <= 1<<18 {
			reps = 7
		}
		header := fmt.Sprintf("\nn=%-9d", n)
		for _, k := range laneSweepWidths {
			header += fmt.Sprintf(" %-7s", fmt.Sprintf("K=%d", k))
		}
		fmt.Println(header + " best K")
		rowBest := make([]float64, len(sweepSublistLens))
		best, bestL, bestK := math.Inf(1), 0, 0
		for i, sl := range sweepSublistLens {
			row := fmt.Sprintf("L=%-9d", sl)
			rowBest[i] = math.Inf(1)
			rowK := 0
			for _, k := range laneSweepWidths {
				opt := core.Options{Seed: 11, Procs: procs, M: n / sl, LaneWidth: k}
				t := interleaved(reps, timing{n, func() { core.RanksInto(dst, l, opt, sc) }})[0].med
				row += fmt.Sprintf(" %-7.2f", t)
				if t < rowBest[i] {
					rowBest[i], rowK = t, k
				}
			}
			fmt.Printf("%s K=%d\n", row, rowK)
			if rowBest[i] < best {
				best, bestL, bestK = rowBest[i], sl, rowK
			}
		}
		fmt.Printf("best: L=%d K=%d (%.2f ns/vertex)\n", bestL, bestK, best)
		for i := range sweepSublistLens {
			slow[i] = append(slow[i], rowBest[i]/best)
		}
	}
	fmt.Println("\none L for every size (geometric mean over sizes of each L's best-K time / the size's best):")
	oneL, oneSlow := 0, math.Inf(1)
	for i, sl := range sweepSublistLens {
		g := 0.0
		for _, r := range slow[i] {
			g += math.Log(r)
		}
		g = math.Exp(g / float64(len(slow[i])))
		fmt.Printf("  L=%-5d %.3fx\n", sl, g)
		if g < oneSlow {
			oneL, oneSlow = sl, g
		}
	}
	fmt.Printf("recommendation: L=%d (persisted: core.DefaultM(2^20) = n/%d)\n", oneL, (1<<20)/max(1, core.DefaultM(1<<20)))
	crossover(procs, sc)
}

// crossover times the serial walk against the engine (core.DefaultM's
// sublists, default lanes, the serial cutoff lowered so the engine
// runs) for ranks and addition scans at lengths around the serial
// cutoff. Every rep times every cell in turn, walk beside engine, so
// drift on the host over the whole run lands in each cell's spread
// rather than between cells, and each cell prints its median and
// quartiles.
func crossover(procs int, sc *core.Scratch) {
	const reps = 15
	fmt.Printf("\nserial walk vs engine (procs=%d, ns/vertex: median [q1, q3] of %d interleaved reps of >= 2^20 vertices):\n", procs, reps)
	fmt.Printf("%-9s %-22s %-22s %-22s %-22s\n", "n", "serial rank", "engine rank", "serial scan", "engine scan")
	var sizes []int
	var calls []timing
	for n := 1 << 10; n <= 1<<16; n <<= 1 {
		r := rng.New(13)
		l := list.NewRandom(n, r)
		l.RandomValues(-5, 5, r)
		dst := make([]int64, n)
		opt := core.Options{Seed: 13, Procs: procs, SerialCutoff: 1}
		sizes = append(sizes, n)
		calls = append(calls,
			timing{n, func() { serial.RanksInto(dst, l) }},
			timing{n, func() { core.RanksInto(dst, l, opt, sc) }},
			timing{n, func() { serial.ScanInto(dst, l) }},
			timing{n, func() { core.ScanInto(dst, l, opt, sc) }})
	}
	c := interleaved(reps, calls...)
	var rank, scan [][2]spread
	for i, n := range sizes {
		row := c[4*i : 4*i+4]
		fmt.Printf("%-9d %-22s %-22s %-22s %-22s\n", n, row[0], row[1], row[2], row[3])
		rank = append(rank, [2]spread{row[0], row[1]})
		scan = append(scan, [2]spread{row[2], row[3]})
	}
	fmt.Println("ranks: " + verdict(sizes, rank))
	fmt.Println("scans: " + verdict(sizes, scan))
	fmt.Println("(the persisted cutoff is core's defaultSerialCutoff; lists at or below it take the walk)")
}

// verdict names each cell's winner — the side whose third quartile is
// below the other's first, or a tie — and resolves the crossover only
// when the walk's last win is the cell just before the engine's first.
func verdict(sizes []int, cells [][2]spread) string {
	out := ""
	first, last := len(sizes), -1 // the engine's first win, the walk's last
	for i, c := range cells {
		win := "tie"
		switch {
		case c[0].q3 < c[1].q1:
			win, last = "walk", i
		case c[1].q3 < c[0].q1:
			win, first = "engine", min(first, i)
		}
		out += fmt.Sprintf("%d %s, ", sizes[i], win)
	}
	if first == last+1 && last >= 0 && first < len(sizes) {
		return out + fmt.Sprintf("crossover between n=%d and n=%d", sizes[last], sizes[first])
	}
	return out + "no crossover resolved"
}

// spread is one cell's timing: the quartiles of its reps, in ns per
// vertex.
type spread struct{ q1, med, q3 float64 }

func (s spread) String() string { return fmt.Sprintf("%.2f [%.2f, %.2f]", s.med, s.q1, s.q3) }

// timing is one timed call: f runs on n vertices.
type timing struct {
	n int
	f func()
}

// interleaved times calls after one warm-up call each: reps rounds,
// each timing one batch of at least 2^20 vertices' worth of every call
// in turn. It returns each call's quartiles in ns per vertex.
func interleaved(reps int, calls ...timing) []spread {
	ts := make([][]float64, len(calls))
	for i, c := range calls {
		c.f()
		ts[i] = make([]float64, reps)
	}
	for r := 0; r < reps; r++ {
		for i, c := range calls {
			batch := max(1, (1<<20)/c.n)
			start := time.Now()
			for j := 0; j < batch; j++ {
				c.f()
			}
			ts[i][r] = float64(time.Since(start)) / float64(batch*c.n)
		}
	}
	out := make([]spread, len(calls))
	for i, t := range ts {
		sort.Float64s(t)
		out[i] = spread{t[reps/4], t[reps/2], t[reps-1-reps/4]}
	}
	return out
}

func main() {
	n := flag.Int("n", 1<<20, "list length")
	procs := flag.Int("procs", 1, "processor count to tune for")
	sweep := flag.Bool("sweep", false, "tune across a range of lengths")
	fit := flag.Bool("fit", false, "fit cubic-in-log2(n) polynomials to the tuned parameters")
	lanes := flag.Bool("lanes", false, "measure the sublist-length and lane-width sweep and the serial cutoff on this host")
	flag.Parse()

	if *lanes {
		sizes := []int{*n}
		if *sweep {
			sizes = nil
			for v := 1 << 14; v <= 1<<22; v <<= 2 {
				sizes = append(sizes, v)
			}
		}
		laneSweep(sizes, *procs)
		return
	}

	c := model.PaperConstants()
	cfg := vm.CrayC90()

	tuneOne := func(n int) model.Tuned {
		if *procs > 1 {
			return c.TuneP(n, *procs, cfg.ContentionFor(*procs))
		}
		return c.Tune(n)
	}

	var ns []int
	if *sweep {
		for v := 1 << 12; v <= 1<<22; v <<= 1 {
			ns = append(ns, v)
		}
	} else {
		ns = []int{*n}
	}

	fmt.Printf("%-9s %-7s %-5s %-6s %-6s %-10s %s\n",
		"n", "m", "S1", "packs1", "packs3", "cycles/vtx", "(procs="+fmt.Sprint(*procs)+")")
	for _, v := range ns {
		tn := tuneOne(v)
		fmt.Printf("%-9d %-7d %-5d %-6d %-6d %-10.3f\n",
			v, tn.M, tn.S1, len(tn.Schedule1), len(tn.Schedule3), tn.PerVertex)
		if !*sweep {
			fmt.Printf("schedule1: %v\nschedule3: %v\n", tn.Schedule1, tn.Schedule3)
		}
	}

	if *fit {
		if len(ns) < 4 {
			for v := 1 << 12; v <= 1<<22; v <<= 1 {
				ns = append(ns, v)
			}
		}
		f := c.FitTuned(ns)
		fmt.Printf("\n§4.4 fits over log2(n) in [%.0f, %.0f]:\n",
			math.Log2(float64(ns[0])), math.Log2(float64(ns[len(ns)-1])))
		fmt.Printf("  m(n)  ≈ %+.4g %+.4g·L %+.4g·L² %+.4g·L³  (L = log2 n)\n",
			f.MPoly[0], f.MPoly[1], f.MPoly[2], f.MPoly[3])
		fmt.Printf("  S1(n) ≈ %+.4g %+.4g·L %+.4g·L² %+.4g·L³\n",
			f.S1Poly[0], f.S1Poly[1], f.S1Poly[2], f.S1Poly[3])
		fmt.Println("\nfitted vs tuned at held-out sizes:")
		for _, v := range []int{3 << 12, 3 << 15, 3 << 18} {
			tn := tuneOne(v)
			s1, s3 := c.SchedulesFor(v, f.M(v), float64(f.S1(v)))
			pred := c.Predict(v, f.M(v), s1, s3) / float64(v)
			fmt.Printf("  n=%-8d tuned m=%-6d fit m=%-6d tuned %.3f fit %.3f cycles/vtx\n",
				v, tn.M, f.M(v), tn.PerVertex, pred)
		}
	}
}
