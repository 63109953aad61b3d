// Command listrank runs one list-ranking or list-scan algorithm on a
// generated list, validates the result against the serial reference,
// and reports wall-clock performance — a quick way to exercise the
// library from the shell.
//
// Usage:
//
//	listrank [-n 1048576] [-algo sublist|serial|wyllie|mr|am|ruling]
//	         [-op rank|scan] [-procs 0] [-seed 1] [-shape random|ordered|reversed]
//	         [-sim] [-simprocs 1]
//
// The algorithms and the simulated Cray C90 come from package
// listrank/repro. With -sim the run happens on the simulated C90
// instead and the report is in modeled cycles and nanoseconds per
// vertex.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"listrank"
	"listrank/repro"
)

func main() {
	n := flag.Int("n", 1<<20, "list length")
	algo := flag.String("algo", "sublist", "algorithm: sublist, serial, wyllie, mr, am, ruling")
	op := flag.String("op", "rank", "operation: rank or scan")
	procs := flag.Int("procs", 0, "worker goroutines (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 1, "seed for list generation and algorithm randomness")
	shape := flag.String("shape", "random", "list shape: random, ordered, reversed")
	sim := flag.Bool("sim", false, "run on the simulated Cray C90 instead of goroutines")
	simProcs := flag.Int("simprocs", 1, "simulated C90 processors (1-16)")
	flag.Parse()

	var l *listrank.List
	switch *shape {
	case "random":
		l = listrank.NewRandomList(*n, *seed)
	case "ordered":
		l = listrank.NewOrderedList(*n)
	case "reversed":
		order := make([]int, *n)
		for i := range order {
			order[i] = *n - 1 - i
		}
		l = listrank.FromOrder(order)
	default:
		fmt.Fprintf(os.Stderr, "unknown shape %q\n", *shape)
		os.Exit(2)
	}

	var alg repro.Algorithm
	switch *algo {
	case "sublist":
		alg = repro.Sublist
	case "serial":
		alg = repro.Serial
	case "wyllie":
		alg = repro.Wyllie
	case "mr":
		alg = repro.MillerReif
	case "am":
		alg = repro.AndersonMiller
	case "ruling":
		alg = repro.RulingSet
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
	rank := *op == "rank"
	if !rank && *op != "scan" {
		fmt.Fprintf(os.Stderr, "unknown operation %q\n", *op)
		os.Exit(2)
	}

	// Reference answer for validation.
	var want []int64
	if rank {
		want = listrank.RankWith(l, listrank.Options{Algorithm: listrank.Serial})
	} else {
		want = listrank.ScanWith(l, listrank.Options{Algorithm: listrank.Serial})
	}

	if *sim {
		out, res, err := repro.SimulateC90(l, alg, *simProcs, rank, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		validate(out, want)
		fmt.Printf("%s %s on simulated CRAY C90 (%d proc): n=%d\n", *algo, *op, *simProcs, *n)
		fmt.Printf("  %.2f cycles/vertex, %.1f ns/vertex, %.3f ms total (modeled)\n",
			res.CyclesPerVertex, res.NSPerVertex, res.Nanoseconds/1e6)
		return
	}

	opt := repro.Options{Algorithm: alg, Procs: *procs, Seed: *seed}
	start := time.Now()
	var out []int64
	if rank {
		out = repro.Rank(l, opt)
	} else {
		out = repro.Scan(l, opt)
	}
	elapsed := time.Since(start)
	validate(out, want)
	effProcs := opt.Procs
	if effProcs == 0 {
		effProcs = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("%s %s: n=%d procs=%d\n", *algo, *op, *n, effProcs)
	fmt.Printf("  %.1f ns/vertex, %v total, result validated\n",
		float64(elapsed.Nanoseconds())/float64(*n), elapsed)
}

func validate(got, want []int64) {
	for i := range want {
		if got[i] != want[i] {
			fmt.Fprintf(os.Stderr, "WRONG RESULT at vertex %d: %d != %d\n", i, got[i], want[i])
			os.Exit(1)
		}
	}
}
