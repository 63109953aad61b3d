// Command experiments regenerates the paper's tables and figures on
// the simulated machines and prints them as aligned text (optionally
// also CSV files into a directory).
//
// Usage:
//
//	experiments [-exp all|table1|table2|fig1|fig3|fig9|fig10|fig11|model|goroutine|machines|ruling|oversample|opstats|treedepth|contraction|conncomp|biconn|conncomp-c90]
//	            [-quick] [-seed N] [-csv DIR]
//
// -quick shrinks the list lengths so the full set finishes in a few
// seconds; the defaults match the scales reported in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"listrank/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1, table2, fig1, fig3, fig9, fig10, fig11, model, goroutine, machines, ruling, oversample, opstats, treedepth, contraction, conncomp, biconn, conncomp-c90)")
	quick := flag.Bool("quick", false, "use reduced list lengths")
	seed := flag.Uint64("seed", 42, "random seed")
	csvDir := flag.String("csv", "", "also write CSV files into this directory")
	flag.Parse()

	type job struct {
		name string
		run  func() *harness.Table
	}

	nBig := 1 << 20
	fig1N := []int{1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}
	fig3N := []int{10000, 100000, 1 << 20, 1 << 22}
	fig11N := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22}
	modelN := []int{1 << 14, 1 << 16, 1 << 18, 1 << 20}
	goN := []int{1 << 16, 1 << 20, 1 << 22}
	graphN := 1 << 19
	samples := 20
	if *quick {
		graphN = 1 << 14
		nBig = 1 << 16
		fig1N = []int{1 << 6, 1 << 10, 1 << 14, 1 << 16}
		fig3N = []int{10000, 1 << 17}
		fig11N = []int{1 << 10, 1 << 14, 1 << 17}
		modelN = []int{1 << 14, 1 << 16}
		goN = []int{1 << 16}
		samples = 5
	}

	jobs := []job{
		{"table1", func() *harness.Table { return harness.TableI(nBig, *seed) }},
		{"table2", func() *harness.Table { return harness.TableII(nBig/4, *seed) }},
		{"fig1", func() *harness.Table { return harness.Fig1(fig1N, *seed) }},
		{"fig3", func() *harness.Table { return harness.Fig3(fig3N, []int{1, 2, 4, 8}, *seed) }},
		{"fig9", func() *harness.Table { return harness.Fig9(10000, []int{50, 100, 200, 400}, samples, *seed) }},
		{"fig10", func() *harness.Table { return harness.Fig10(10000, 199) }},
		{"fig11", func() *harness.Table { return harness.Fig11(fig11N, *seed) }},
		{"model", func() *harness.Table { return harness.ModelValidation(modelN, *seed) }},
		{"goroutine", func() *harness.Table { return harness.GoroutineTrack(goN, []int{1, 2, 4, 8}, *seed) }},
		{"machines", func() *harness.Table { return harness.MachineComparison(nBig, *seed) }},
		{"ruling", func() *harness.Table { return harness.Deterministic(goN, 4, *seed) }},
		{"oversample", func() *harness.Table { return harness.Oversample(fig11N, 1.0, 0.25, *seed) }},
		{"opstats", func() *harness.Table { return harness.OpBreakdown(nBig, *seed) }},
		{"treedepth", func() *harness.Table { return harness.TreeDepth(nBig/2, *seed) }},
		{"contraction", func() *harness.Table { return harness.Contraction([]int{1 << 12, 1 << 15, 1 << 18}, *seed) }},
		{"conncomp", func() *harness.Table { return harness.Connectivity(graphN, []int{1, 4}) }},
		{"biconn", func() *harness.Table { return harness.Biconnectivity(graphN, []int{1, 4}) }},
		{"conncomp-c90", func() *harness.Table { return harness.ConnectivityC90(graphN/4, *seed) }},
	}

	ran := false
	for _, j := range jobs {
		if *exp != "all" && *exp != j.name {
			continue
		}
		ran = true
		tb := j.run()
		tb.Render(os.Stdout)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*csvDir, j.name+".csv"))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			tb.RenderCSV(f)
			f.Close()
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: all %s\n", *exp,
			strings.Join([]string{"table1", "table2", "fig1", "fig3", "fig9", "fig10", "fig11", "model", "goroutine", "machines", "ruling", "oversample", "opstats", "treedepth", "contraction", "conncomp", "biconn", "conncomp-c90"}, " "))
		os.Exit(2)
	}
}
