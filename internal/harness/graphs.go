package harness

import (
	"fmt"
	"time"

	"listrank/graph"
	"listrank/internal/alpha"
	"listrank/internal/vecalg"
	"listrank/internal/vm"
)

// graphFamilies builds the workload families of the prior
// implementation studies the paper cites (meshes for Lumetta et al.,
// sparse random graphs for Greiner, trees as the depth adversary).
func graphFamilies(scale int) []struct {
	name string
	g    *graph.Graph
} {
	side := 1
	for side*side < scale {
		side++
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"mesh", graph.Grid(side, side)},
		{"gnm(m=2n)", graph.RandomGNM(scale, 2*scale, 1001)},
		{"path", graph.Path(scale)},
		{"tree", graph.RandomTree(scale, 1002)},
	}
}

// Connectivity compares the connected-components algorithms — two
// serial baselines and the parallel one built from the paper's
// pointer jumping — across graph families, validating every labeling
// against the DFS reference. This is the experiment the implementation studies cited
// in §1 ran on their hardware; EXPERIMENTS.md discusses how our
// goroutine-track shape relates to their findings.
func Connectivity(scale int, procs []int) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Connected components, goroutine track (n≈%d)", scale),
		Columns: []string{"graph", "n", "edges", "algorithm", "procs", "ms", "ns/edge", "vs union-find"},
		Notes: []string{
			"Every labeling validated against serial DFS before timing is reported.",
			"hook-shortcut = atomic-min hooking + pointer-jump shortcut (Shiloach-Vishkin family).",
		},
	}
	for _, fam := range graphFamilies(scale) {
		want := graph.ConnectedComponents(fam.g, graph.CCOptions{Algorithm: graph.CCSerialDFS})
		base := 0.0
		type cfg struct {
			algo graph.CCAlgorithm
			p    int
		}
		cfgs := []cfg{{graph.CCSerialDFS, 1}, {graph.CCUnionFind, 1}}
		for _, p := range procs {
			cfgs = append(cfgs, cfg{graph.CCHookShortcut, p})
		}
		for _, c := range cfgs {
			opt := graph.CCOptions{Algorithm: c.algo, Procs: c.p}
			start := time.Now()
			got := graph.ConnectedComponents(fam.g, opt)
			el := time.Since(start)
			if got.Count != want.Count {
				panic(fmt.Sprintf("connectivity: %s/%s wrong component count", fam.name, c.algo))
			}
			for v := range want.Label {
				if got.Label[v] != want.Label[v] {
					panic(fmt.Sprintf("connectivity: %s/%s wrong labels", fam.name, c.algo))
				}
			}
			ms := float64(el.Microseconds()) / 1000
			if c.algo == graph.CCUnionFind {
				base = ms
			}
			ratio := "—"
			if base > 0 && c.algo != graph.CCUnionFind && c.algo != graph.CCSerialDFS {
				ratio = fmt.Sprintf("%.2fx", ms/base)
			}
			t.Rows = append(t.Rows, []string{
				fam.name,
				fmt.Sprint(fam.g.Len()),
				fmt.Sprint(fam.g.NumEdges()),
				c.algo.String(),
				fmt.Sprint(c.p),
				f2(ms),
				f1(float64(el.Nanoseconds()) / float64(max(fam.g.NumEdges(), 1))),
				ratio,
			})
		}
	}
	return t
}

// Biconnectivity compares the Tarjan-Vishkin reduction — spanning
// forest by union-find, rooting and preorder by Euler-tour list
// ranking, blocks by pointer-jumping connectivity — against the serial
// Hopcroft-Tarjan baseline, reporting the structural counts alongside
// the times.
func Biconnectivity(scale int, procs []int) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Biconnected components (n≈%d)", scale),
		Columns: []string{"graph", "n", "edges", "algorithm", "procs", "ms", "blocks", "bridges", "artic."},
		Notes: []string{
			"tarjan-vishkin takes union-find's spanning forest, then chains four",
			"parallel consumers of the library's primitives; its block structure",
			"is validated cell-for-cell against hopcroft-tarjan.",
		},
	}
	for _, fam := range graphFamilies(scale) {
		want, err := graph.BiconnectedComponents(fam.g, graph.BiconnOptions{Algorithm: graph.BiconnSerialDFS})
		if err != nil {
			panic(err)
		}
		type cfg struct {
			algo graph.BiconnAlgorithm
			p    int
		}
		cfgs := []cfg{{graph.BiconnSerialDFS, 1}}
		for _, p := range procs {
			cfgs = append(cfgs, cfg{graph.BiconnTarjanVishkin, p})
		}
		for _, c := range cfgs {
			start := time.Now()
			got, err := graph.BiconnectedComponents(fam.g, graph.BiconnOptions{Algorithm: c.algo, Procs: c.p})
			if err != nil {
				panic(err)
			}
			el := time.Since(start)
			bridges, arts := 0, 0
			for i := range got.EdgeBlock {
				if got.EdgeBlock[i] != want.EdgeBlock[i] {
					panic(fmt.Sprintf("biconnectivity: %s/%s wrong blocks", fam.name, c.algo))
				}
				if got.Bridge[i] {
					bridges++
				}
			}
			for _, a := range got.Articulation {
				if a {
					arts++
				}
			}
			t.Rows = append(t.Rows, []string{
				fam.name,
				fmt.Sprint(fam.g.Len()),
				fmt.Sprint(fam.g.NumEdges()),
				c.algo.String(),
				fmt.Sprint(c.p),
				f2(float64(el.Microseconds()) / 1000),
				fmt.Sprint(got.NumBlocks),
				fmt.Sprint(bridges),
				fmt.Sprint(arts),
			})
		}
	}
	return t
}

// ConnectivityC90 asks the paper's §1 claim of the graph level: list
// ranking needed the C90's memory bandwidth to win — does connected
// components? One processor of the simulated machine runs the scalar
// union-find baseline (dependent loads at the calibrated chase rate)
// against the vectorized random-mate contraction (pipelined gathers,
// §3-style edge packing), the same serial-versus-vector contest as
// Fig. 1.
func ConnectivityC90(scale int, seed uint64) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Connected components across the modeled machines (n≈%d)", scale),
		Columns: []string{"graph", "n", "edges", "program", "procs", "cycles/edge", "ns/edge", "rounds", "speedup"},
		Notes: []string{
			"Labels validated against union-find on every run.",
			"Vector program: in-register hash coins, masked hook scatter, gather relabel, §3 pack.",
			"Alpha row: union-find on the modeled DEC 3000/600 with its cache simulator.",
		},
	}
	for _, fam := range graphFamilies(scale) {
		n := fam.g.Len()
		edges := make([][2]int32, fam.g.NumEdges())
		for i := range edges {
			u, v := fam.g.Edge(i)
			edges[i] = [2]int32{int32(u), int32(v)}
		}
		want := graph.ConnectedComponents(fam.g, graph.CCOptions{Algorithm: graph.CCUnionFind})

		check := func(in *vecalg.GraphInput, what string) {
			got := in.Labels()
			for v := range got {
				if got[v] != int64(want.Label[v]) {
					panic(fmt.Sprintf("conncomp-c90: %s/%s wrong labels", fam.name, what))
				}
			}
		}
		mem := 4*(n+fam.g.NumEdges()) + 1<<18

		smach := vm.New(vm.CrayC90(), mem)
		sin := vecalg.LoadGraph(smach, n, edges)
		if got := vecalg.SerialCC(sin); got != want.Count {
			panic("conncomp-c90: scalar count wrong")
		}
		check(sin, "scalar")
		serCycles := smach.Makespan()

		ne := float64(max(fam.g.NumEdges(), 1))

		// The workstation column: union-find on the modeled DEC
		// 3000/600 with its cache simulator (Table I's comparison
		// carried to the graph level).
		ws := alpha.DEC3000600()
		wsLabels, wsCount, wsNS := ws.ConnectedComponents(n, edges)
		if wsCount != want.Count {
			panic("conncomp-c90: workstation count wrong")
		}
		for v := range wsLabels {
			if wsLabels[v] != int64(want.Label[v]) {
				panic("conncomp-c90: workstation labels wrong")
			}
		}
		t.Rows = append(t.Rows, []string{
			fam.name, fmt.Sprint(n), fmt.Sprint(fam.g.NumEdges()),
			"Alpha union-find", "1", "—", f1(wsNS / ne), "—", "—",
		})
		t.Rows = append(t.Rows, []string{
			fam.name, fmt.Sprint(n), fmt.Sprint(fam.g.NumEdges()),
			"C90 scalar union-find", "1", f2(serCycles / ne), f1(smach.Nanoseconds() / ne), "—", "—",
		})
		for _, procs := range []int{1, 2, 4, 8} {
			cfg := vm.CrayC90()
			cfg.Procs = procs
			vmach := vm.New(cfg, mem)
			vin := vecalg.LoadGraph(vmach, n, edges)
			count, rounds := vecalg.RandomMateCCP(vin, procs, seed)
			if count != want.Count {
				panic("conncomp-c90: vector count wrong")
			}
			check(vin, "vector")
			vecCycles := vmach.Makespan()
			t.Rows = append(t.Rows, []string{
				fam.name, fmt.Sprint(n), fmt.Sprint(fam.g.NumEdges()),
				fmt.Sprintf("vector random-mate, %dp", procs), fmt.Sprint(procs),
				f2(vecCycles / ne), f1(vmach.Nanoseconds() / ne),
				fmt.Sprint(rounds), fmt.Sprintf("%.2fx", serCycles/vecCycles),
			})
		}
	}
	return t
}
