// Command graphs runs the connectivity suite from the shell: generate
// a graph family, compute connected components, spanning forest and
// biconnectivity with a chosen algorithm, validate against the serial
// baselines, and print a summary.
//
// Usage:
//
//	graphs [-family gnm|grid|path|cycle|tree|star|complete] [-n N] [-m M]
//	       [-cc hook|dfs|uf] [-biconn tv|ht] [-procs P] [-seed S] [-novalidate]
//
// -seed seeds the gnm and tree generators. The spanning forest is
// always union-find's, and Tarjan-Vishkin builds on the same forest.
//
// Examples:
//
//	graphs -family gnm -n 1048576 -m 2097152        # big sparse random graph
//	graphs -family grid -n 262144 -cc uf            # mesh by serial union-find
//	graphs -family path -n 1000000 -biconn tv       # the depth adversary
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"listrank/graph"
)

func main() {
	family := flag.String("family", "gnm", "graph family: gnm, grid, path, cycle, tree, star, complete")
	n := flag.Int("n", 1<<20, "vertex count (grid uses the nearest square)")
	m := flag.Int("m", 0, "edge count for gnm (default 2n)")
	ccAlgo := flag.String("cc", "hook", "components algorithm: hook, dfs, uf")
	biAlgo := flag.String("biconn", "tv", "biconnectivity algorithm: tv (Tarjan-Vishkin), ht (Hopcroft-Tarjan)")
	procs := flag.Int("procs", 0, "worker goroutines (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 42, "seed of the gnm and tree generators")
	novalidate := flag.Bool("novalidate", false, "skip the serial cross-checks")
	flag.Parse()

	var g *graph.Graph
	switch *family {
	case "gnm":
		edges := *m
		if edges == 0 {
			edges = 2 * *n
		}
		g = graph.RandomGNM(*n, edges, *seed)
	case "grid":
		side := int(math.Sqrt(float64(*n)))
		g = graph.Grid(side, side)
	case "path":
		g = graph.Path(*n)
	case "cycle":
		g = graph.Cycle(*n)
	case "tree":
		g = graph.RandomTree(*n, *seed)
	case "star":
		g = graph.Star(*n)
	case "complete":
		g = graph.Complete(*n)
	default:
		fmt.Fprintf(os.Stderr, "unknown family %q\n", *family)
		os.Exit(2)
	}
	fmt.Printf("%s graph: %d vertices, %d edges\n", *family, g.Len(), g.NumEdges())

	ccNames := map[string]graph.CCAlgorithm{
		"hook": graph.CCHookShortcut, "dfs": graph.CCSerialDFS, "uf": graph.CCUnionFind,
	}
	algo, ok := ccNames[*ccAlgo]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -cc %q\n", *ccAlgo)
		os.Exit(2)
	}
	opt := graph.CCOptions{Algorithm: algo, Procs: *procs}

	start := time.Now()
	cc := graph.ConnectedComponents(g, opt)
	fmt.Printf("components (%s): %d in %v\n", algo, cc.Count, time.Since(start))
	if !*novalidate {
		ref := graph.ConnectedComponents(g, graph.CCOptions{Algorithm: graph.CCSerialDFS})
		for v := range ref.Label {
			if cc.Label[v] != ref.Label[v] {
				fmt.Fprintln(os.Stderr, "VALIDATION FAILED: labels differ from serial DFS")
				os.Exit(1)
			}
		}
		fmt.Println("  validated against serial DFS")
	}

	start = time.Now()
	forest := graph.SpanningForest(g)
	fmt.Printf("spanning forest: %d edges in %v\n", len(forest), time.Since(start))

	biNames := map[string]graph.BiconnAlgorithm{
		"tv": graph.BiconnTarjanVishkin, "ht": graph.BiconnSerialDFS,
	}
	balgo, ok := biNames[*biAlgo]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -biconn %q\n", *biAlgo)
		os.Exit(2)
	}
	start = time.Now()
	b, err := graph.BiconnectedComponents(g, graph.BiconnOptions{Algorithm: balgo, Procs: *procs})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	el := time.Since(start)
	bridges, arts := 0, 0
	for _, isB := range b.Bridge {
		if isB {
			bridges++
		}
	}
	for _, isA := range b.Articulation {
		if isA {
			arts++
		}
	}
	fmt.Printf("biconnectivity (%s): %d blocks, %d bridges, %d articulation points in %v\n",
		balgo, b.NumBlocks, bridges, arts, el)
	if !*novalidate && balgo == graph.BiconnTarjanVishkin {
		ref, _ := graph.BiconnectedComponents(g, graph.BiconnOptions{Algorithm: graph.BiconnSerialDFS})
		for i := range ref.EdgeBlock {
			if b.EdgeBlock[i] != ref.EdgeBlock[i] {
				fmt.Fprintln(os.Stderr, "VALIDATION FAILED: blocks differ from Hopcroft-Tarjan")
				os.Exit(1)
			}
		}
		fmt.Println("  validated against Hopcroft-Tarjan")
	}
}
