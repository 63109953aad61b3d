package graph

import (
	"fmt"
	"sync"
	"testing"

	"listrank"
)

var ccAllAlgorithms = []CCAlgorithm{CCHookShortcut, CCSerialDFS, CCUnionFind}

// TestGraphEngineReuseAcrossSizes drives one engine through graphs
// whose sizes grow and shrink, under every algorithm; every labeling
// must match the DFS reference, and reusing one Components value
// across calls must be equivalent to fresh ones.
func TestGraphEngineReuseAcrossSizes(t *testing.T) {
	en := NewEngine()
	var c Components // reused destination, resized by the engine
	graphs := []*Graph{
		RandomGNM(5000, 8000, 1),
		Grid(20, 20),
		RandomGNM(40000, 50000, 2),
		Star(100),
		Disjoint(Path(3000), Cycle(500), Complete(40)),
		Path(10),
	}
	for gi, g := range graphs {
		want := componentsDFS(g)
		for _, a := range ccAllAlgorithms {
			for _, procs := range []int{1, 4} {
				en.ComponentsInto(&c, g, CCOptions{Algorithm: a, Procs: procs})
				if c.Count != want.Count {
					t.Fatalf("graph %d alg %v procs %d: count = %d, want %d", gi, a, procs, c.Count, want.Count)
				}
				for v := range c.Label {
					if c.Label[v] != want.Label[v] {
						t.Fatalf("graph %d alg %v procs %d: Label[%d] = %d, want %d",
							gi, a, procs, v, c.Label[v], want.Label[v])
					}
				}
			}
		}
		// The spanning forest must have exactly n - #components edges,
		// all of them connecting (and none repeated: union-find check).
		forest := en.SpanningForestInto(nil, g)
		if len(forest) != g.Len()-want.Count {
			t.Fatalf("graph %d: forest has %d edges, want %d", gi, len(forest), g.Len()-want.Count)
		}
		uf := make([]int32, g.Len())
		for v := range uf {
			uf[v] = int32(v)
		}
		for _, id := range forest {
			u, v := g.Edge(id)
			ru, rv := ufFind(uf, int32(u)), ufFind(uf, int32(v))
			if ru == rv {
				t.Fatalf("graph %d: forest edge %d closes a cycle", gi, id)
			}
			uf[ru] = rv
		}
	}
}

// TestBiconnIntoReuse: one engine and one reused Biconnectivity value
// across differently sized graphs, both algorithms, against the fresh
// API.
func TestBiconnIntoReuse(t *testing.T) {
	en := NewEngine()
	var out Biconnectivity
	graphs := []*Graph{
		RandomGNM(2000, 3000, 11),
		Grid(30, 17),
		Star(50),
		Disjoint(Cycle(100), Path(200), Complete(8)),
		Path(5),
	}
	for gi, g := range graphs {
		want, err := BiconnectedComponents(g, BiconnOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []BiconnAlgorithm{BiconnTarjanVishkin, BiconnSerialDFS} {
			if err := en.BiconnectedComponentsInto(&out, g, BiconnOptions{Algorithm: alg}); err != nil {
				t.Fatal(err)
			}
			if out.NumBlocks != want.NumBlocks {
				t.Fatalf("graph %d alg %v: %d blocks, want %d", gi, alg, out.NumBlocks, want.NumBlocks)
			}
			for i := range out.EdgeBlock {
				if out.EdgeBlock[i] != want.EdgeBlock[i] {
					t.Fatalf("graph %d alg %v: EdgeBlock[%d] = %d, want %d",
						gi, alg, i, out.EdgeBlock[i], want.EdgeBlock[i])
				}
				if out.Bridge[i] != want.Bridge[i] {
					t.Fatalf("graph %d alg %v: Bridge[%d] = %v, want %v",
						gi, alg, i, out.Bridge[i], want.Bridge[i])
				}
			}
			for v := range out.Articulation {
				if out.Articulation[v] != want.Articulation[v] {
					t.Fatalf("graph %d alg %v: Articulation[%d] = %v, want %v",
						gi, alg, v, out.Articulation[v], want.Articulation[v])
				}
			}
		}
	}
}

// TestGraphEngineConcurrent runs independent engines in parallel; each
// must label its own graph correctly with no interference (CI's race
// leg runs this under the race detector).
func TestGraphEngineConcurrent(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			en := NewEngine()
			g := RandomGNM(3000+211*w, 4000+100*w, uint64(w))
			want := componentsDFS(g)
			var c Components
			for r := 0; r < 6; r++ {
				a := ccAllAlgorithms[r%len(ccAllAlgorithms)]
				en.ComponentsInto(&c, g, CCOptions{Algorithm: a, Procs: 2})
				if c.Count != want.Count {
					t.Errorf("worker %d round %d: count = %d, want %d", w, r, c.Count, want.Count)
					return
				}
				for v := range c.Label {
					if c.Label[v] != want.Label[v] {
						t.Errorf("worker %d round %d: Label[%d] mismatch", w, r, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGraphZeroAllocSteadyState is the application-layer contract of
// the arena architecture: with a warm engine, a warm destination and
// one worker, component labeling performs zero heap allocations under
// every algorithm, and so do the serial biconnectivity and the
// union-find spanning forest.
func TestGraphZeroAllocSteadyState(t *testing.T) {
	g := RandomGNM(1<<15, 1<<16, 77)
	for _, procs := range []int{1, 4} {
		en := NewEngine()
		if procs > 1 {
			// An engine-owned pool sized to the job keeps the Procs > 1
			// guarantee independent of the host machine's core count.
			pool := listrank.NewWorkerPool(procs)
			defer pool.Close()
			en.SetPool(pool)
		}
		var c Components
		var bi Biconnectivity
		forest := make([]int, 0, g.Len())
		cases := []struct {
			name string
			run  func()
		}{
			{"components-hook-shortcut", func() {
				en.ComponentsInto(&c, g, CCOptions{Algorithm: CCHookShortcut, Procs: procs})
			}},
			{"components-serial-dfs", func() {
				en.ComponentsInto(&c, g, CCOptions{Algorithm: CCSerialDFS})
			}},
			{"components-union-find", func() {
				en.ComponentsInto(&c, g, CCOptions{Algorithm: CCUnionFind})
			}},
			{"spanning-union-find", func() {
				forest = en.SpanningForestInto(forest, g)
			}},
			{"biconn-serial", func() {
				en.biconnSerial(&bi, g)
			}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s-p%d", tc.name, procs), func(t *testing.T) {
				tc.run() // warm the arena for this configuration
				if allocs := testing.AllocsPerRun(3, tc.run); allocs != 0 {
					t.Errorf("%s: %v allocs/op with a warm engine, want 0", tc.name, allocs)
				}
			})
		}
	}
}

// TestPooledTopLevelUnchanged: the rewired package-level functions
// must keep their allocation-fresh result semantics — two calls must
// return independent storage, never views of one pooled arena.
func TestPooledTopLevelUnchanged(t *testing.T) {
	g := Grid(40, 40)
	a := ConnectedComponents(g, CCOptions{})
	b := ConnectedComponents(g, CCOptions{Algorithm: CCUnionFind})
	if &a.Label[0] == &b.Label[0] {
		t.Fatal("pooled top-level calls returned aliased label storage")
	}
	a.Label[0] = -99
	if b.Label[0] == -99 {
		t.Fatal("mutating one result leaked into the other")
	}
	f1 := SpanningForest(g)
	f2 := SpanningForest(g)
	if fmt.Sprintf("%p", f1) == fmt.Sprintf("%p", f2) {
		t.Fatal("pooled spanning forests share storage")
	}
	b1, err := BiconnectedComponents(g, BiconnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := BiconnectedComponents(g, BiconnOptions{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if &b1.EdgeBlock[0] == &b2.EdgeBlock[0] {
		t.Fatal("pooled biconnectivity results share storage")
	}
}

// TestZeroValueEngineUsable: the zero value of Engine must work for
// every method, including the Tarjan-Vishkin path that reaches the
// embedded tree engine (lazily created).
func TestZeroValueEngineUsable(t *testing.T) {
	var en Engine
	g := Grid(8, 8)
	var c Components
	en.ComponentsInto(&c, g, CCOptions{Procs: 2})
	if c.Count != 1 {
		t.Fatalf("count = %d, want 1", c.Count)
	}
	var bi Biconnectivity
	if err := en.BiconnectedComponentsInto(&bi, g, BiconnOptions{}); err != nil {
		t.Fatal(err)
	}
	if bi.NumBlocks != 1 {
		t.Fatalf("blocks = %d, want 1", bi.NumBlocks)
	}
}
