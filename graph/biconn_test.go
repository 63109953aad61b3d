package graph

import (
	"fmt"
	"testing"
	"testing/quick"

	"listrank/internal/rng"
)

func sameBiconn(t *testing.T, what string, got, want *Biconnectivity) {
	t.Helper()
	if got.NumBlocks != want.NumBlocks {
		t.Errorf("%s: NumBlocks = %d, want %d", what, got.NumBlocks, want.NumBlocks)
	}
	for i := range want.EdgeBlock {
		if got.EdgeBlock[i] != want.EdgeBlock[i] {
			t.Errorf("%s: EdgeBlock[%d] = %d, want %d", what, i, got.EdgeBlock[i], want.EdgeBlock[i])
			return
		}
		if got.Bridge[i] != want.Bridge[i] {
			t.Errorf("%s: Bridge[%d] = %v, want %v", what, i, got.Bridge[i], want.Bridge[i])
			return
		}
	}
	for v := range want.Articulation {
		if got.Articulation[v] != want.Articulation[v] {
			t.Errorf("%s: Articulation[%d] = %v, want %v", what, v, got.Articulation[v], want.Articulation[v])
			return
		}
	}
}

func bothBiconn(t *testing.T, g *Graph) (tv, ht *Biconnectivity) {
	t.Helper()
	ht = biconnSerial(g)
	var err error
	tv, err = BiconnectedComponents(g, BiconnOptions{})
	if err != nil {
		t.Fatalf("tarjan-vishkin: %v", err)
	}
	return tv, ht
}

func TestBiconnHandComputed(t *testing.T) {
	t.Run("triangle", func(t *testing.T) {
		g := Cycle(3)
		tv, ht := bothBiconn(t, g)
		sameBiconn(t, "tv-vs-ht", tv, ht)
		if ht.NumBlocks != 1 {
			t.Errorf("NumBlocks = %d, want 1", ht.NumBlocks)
		}
		for v := 0; v < 3; v++ {
			if ht.Articulation[v] {
				t.Errorf("vertex %d should not be an articulation point", v)
			}
		}
		for i := 0; i < 3; i++ {
			if ht.Bridge[i] {
				t.Errorf("edge %d should not be a bridge", i)
			}
		}
	})

	t.Run("path3", func(t *testing.T) {
		g := Path(3) // 0-1, 1-2
		tv, ht := bothBiconn(t, g)
		sameBiconn(t, "tv-vs-ht", tv, ht)
		if ht.NumBlocks != 2 {
			t.Errorf("NumBlocks = %d, want 2", ht.NumBlocks)
		}
		if !ht.Articulation[1] || ht.Articulation[0] || ht.Articulation[2] {
			t.Errorf("Articulation = %v, want only vertex 1", ht.Articulation)
		}
		if !ht.Bridge[0] || !ht.Bridge[1] {
			t.Errorf("Bridge = %v, want both bridges", ht.Bridge)
		}
		// Canonical labels: each block is its own edge.
		if ht.EdgeBlock[0] != 0 || ht.EdgeBlock[1] != 1 {
			t.Errorf("EdgeBlock = %v, want [0 1]", ht.EdgeBlock)
		}
	})

	t.Run("bowtie", func(t *testing.T) {
		// Two triangles sharing vertex 2: 0-1-2 and 2-3-4.
		g := MustNew(5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}})
		tv, ht := bothBiconn(t, g)
		sameBiconn(t, "tv-vs-ht", tv, ht)
		if ht.NumBlocks != 2 {
			t.Errorf("NumBlocks = %d, want 2", ht.NumBlocks)
		}
		want := []bool{false, false, true, false, false}
		for v, w := range want {
			if ht.Articulation[v] != w {
				t.Errorf("Articulation[%d] = %v, want %v", v, ht.Articulation[v], w)
			}
		}
		if ht.EdgeBlock[0] != ht.EdgeBlock[1] || ht.EdgeBlock[1] != ht.EdgeBlock[2] {
			t.Errorf("first triangle split: %v", ht.EdgeBlock)
		}
		if ht.EdgeBlock[3] != ht.EdgeBlock[4] || ht.EdgeBlock[4] != ht.EdgeBlock[5] {
			t.Errorf("second triangle split: %v", ht.EdgeBlock)
		}
		if ht.EdgeBlock[0] == ht.EdgeBlock[3] {
			t.Errorf("triangles merged: %v", ht.EdgeBlock)
		}
	})

	t.Run("star", func(t *testing.T) {
		g := Star(6)
		tv, ht := bothBiconn(t, g)
		sameBiconn(t, "tv-vs-ht", tv, ht)
		if ht.NumBlocks != 5 {
			t.Errorf("NumBlocks = %d, want 5", ht.NumBlocks)
		}
		if !ht.Articulation[0] {
			t.Error("center should be an articulation point")
		}
		for i := 0; i < 5; i++ {
			if !ht.Bridge[i] {
				t.Errorf("edge %d should be a bridge", i)
			}
		}
	})

	t.Run("parallel-pair", func(t *testing.T) {
		g := MustNew(2, [][2]int{{0, 1}, {1, 0}})
		tv, ht := bothBiconn(t, g)
		sameBiconn(t, "tv-vs-ht", tv, ht)
		if ht.NumBlocks != 1 {
			t.Errorf("NumBlocks = %d, want 1", ht.NumBlocks)
		}
		if ht.Bridge[0] || ht.Bridge[1] {
			t.Errorf("a doubled edge is not a bridge: %v", ht.Bridge)
		}
		if ht.Articulation[0] || ht.Articulation[1] {
			t.Errorf("no articulation points in a doubled edge: %v", ht.Articulation)
		}
	})

	t.Run("self-loop", func(t *testing.T) {
		g := MustNew(3, [][2]int{{0, 1}, {1, 1}, {1, 2}})
		tv, ht := bothBiconn(t, g)
		sameBiconn(t, "tv-vs-ht", tv, ht)
		if ht.EdgeBlock[1] != -1 {
			t.Errorf("self-loop block = %d, want -1", ht.EdgeBlock[1])
		}
		if !ht.Articulation[1] {
			t.Error("vertex 1 bridges two real blocks")
		}
	})

	t.Run("dumbbell", func(t *testing.T) {
		// Two triangles joined by a bridge: 0-1-2, edge 2-3, 3-4-5.
		g := MustNew(6, [][2]int{
			{0, 1}, {1, 2}, {2, 0},
			{2, 3},
			{3, 4}, {4, 5}, {5, 3},
		})
		tv, ht := bothBiconn(t, g)
		sameBiconn(t, "tv-vs-ht", tv, ht)
		if ht.NumBlocks != 3 {
			t.Errorf("NumBlocks = %d, want 3", ht.NumBlocks)
		}
		if !ht.Bridge[3] {
			t.Error("the middle edge should be a bridge")
		}
		for i, want := range []bool{false, false, false, true, false, false, false} {
			if ht.Bridge[i] != want {
				t.Errorf("Bridge[%d] = %v, want %v", i, ht.Bridge[i], want)
			}
		}
		for v, want := range []bool{false, false, true, true, false, false} {
			if ht.Articulation[v] != want {
				t.Errorf("Articulation[%d] = %v, want %v", v, ht.Articulation[v], want)
			}
		}
	})

	t.Run("cycle-is-one-block", func(t *testing.T) {
		g := Cycle(50)
		tv, ht := bothBiconn(t, g)
		sameBiconn(t, "tv-vs-ht", tv, ht)
		if ht.NumBlocks != 1 {
			t.Errorf("NumBlocks = %d, want 1", ht.NumBlocks)
		}
	})
}

func TestBiconnAgreementFamilies(t *testing.T) {
	for name, g := range testFamilies() {
		tv, ht := bothBiconn(t, g)
		sameBiconn(t, name, tv, ht)
	}
}

// TestBiconnSeedAndProcSweep sweeps the random component's generator
// seed and the worker count.
func TestBiconnSeedAndProcSweep(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := Disjoint(RandomGNM(150, 250, 31+seed), Grid(8, 8), Star(20))
		want := biconnSerial(g)
		for _, p := range []int{1, 2, 4, 8} {
			got, err := BiconnectedComponents(g, BiconnOptions{Procs: p})
			if err != nil {
				t.Fatal(err)
			}
			sameBiconn(t, fmt.Sprintf("seed=%d/p=%d", seed, p), got, want)
		}
	}
}

func TestBiconnDeepPath(t *testing.T) {
	// Exercises the iterative DFS (no stack overflow) and the
	// connected-graph RootAt path at once.
	g := Path(200000)
	tv, ht := bothBiconn(t, g)
	sameBiconn(t, "deep-path", tv, ht)
	if ht.NumBlocks != g.NumEdges() {
		t.Errorf("NumBlocks = %d, want %d (all bridges)", ht.NumBlocks, g.NumEdges())
	}
}

// --- Ground truth by brute force ---------------------------------------

// bruteArticulation reports whether removing v increases the number
// of components among the remaining vertices.
func bruteArticulation(g *Graph, v int) bool {
	n := g.Len()
	base := 0
	seen := make([]bool, n)
	var stack []int
	comps := func(skip int) int {
		for i := range seen {
			seen[i] = false
		}
		c := 0
		for s := 0; s < n; s++ {
			if s == skip || seen[s] {
				continue
			}
			c++
			seen[s] = true
			stack = append(stack[:0], s)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				g.Neighbors(x, func(w, e int) {
					if w != skip && !seen[w] {
						seen[w] = true
						stack = append(stack, w)
					}
				})
			}
		}
		return c
	}
	base = comps(-1)
	if g.Degree(v) == 0 {
		return false
	}
	return comps(v) > base // isolated-vertex bookkeeping: removing v also removes v itself
}

// bruteBridge reports whether removing edge id disconnects its endpoints.
func bruteBridge(g *Graph, id int) bool {
	u0, v0 := g.Edge(id)
	if u0 == v0 {
		return false
	}
	n := g.Len()
	seen := make([]bool, n)
	stack := []int{u0}
	seen[u0] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.Neighbors(x, func(w, e int) {
			if e != id && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		})
	}
	return !seen[v0]
}

func TestBiconnBruteForce(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(12)
		m := r.Intn(2 * n)
		edges := make([][2]int, m)
		for i := range edges {
			edges[i] = [2]int{r.Intn(n), r.Intn(n)}
		}
		g := MustNew(n, edges)
		tv, ht := bothBiconn(t, g)
		sameBiconn(t, fmt.Sprintf("trial %d", trial), tv, ht)
		for v := 0; v < n; v++ {
			if want := bruteArticulation(g, v); ht.Articulation[v] != want {
				t.Fatalf("trial %d (n=%d edges=%v): Articulation[%d] = %v, want %v",
					trial, n, edges, v, ht.Articulation[v], want)
			}
		}
		for i := 0; i < m; i++ {
			if want := bruteBridge(g, i); ht.Bridge[i] != want {
				t.Fatalf("trial %d (n=%d edges=%v): Bridge[%d] = %v, want %v",
					trial, n, edges, i, ht.Bridge[i], want)
			}
		}
	}
}

func TestBiconnQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraphQuick(seed)
		ht := biconnSerial(g)
		tv, err := BiconnectedComponents(g, BiconnOptions{})
		if err != nil {
			return false
		}
		if tv.NumBlocks != ht.NumBlocks {
			return false
		}
		for i := range ht.EdgeBlock {
			if tv.EdgeBlock[i] != ht.EdgeBlock[i] || tv.Bridge[i] != ht.Bridge[i] {
				return false
			}
		}
		for v := range ht.Articulation {
			if tv.Articulation[v] != ht.Articulation[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Block labels partition edges consistently: two edges share a label
// iff they are 2-connected to each other (verified structurally: the
// label is the minimum edge index of the block, so labels must be
// members of their own block).
func TestBiconnCanonicalLabels(t *testing.T) {
	g := RandomGNM(200, 400, 55)
	b, err := BiconnectedComponents(g, BiconnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range b.EdgeBlock {
		if l == -1 {
			u, v := g.Edge(i)
			if u != v {
				t.Fatalf("non-loop edge %d unlabeled", i)
			}
			continue
		}
		if l > int32(i) {
			t.Fatalf("EdgeBlock[%d] = %d > %d: not the block minimum", i, l, i)
		}
		if b.EdgeBlock[l] != l {
			t.Fatalf("label %d is not in its own block (EdgeBlock[%d] = %d)", l, l, b.EdgeBlock[l])
		}
	}
}

func TestBiconnAlgorithmString(t *testing.T) {
	if BiconnTarjanVishkin.String() != "tarjan-vishkin" || BiconnSerialDFS.String() != "hopcroft-tarjan" {
		t.Error("String() names wrong")
	}
}

func TestBiconnEmptyAndTiny(t *testing.T) {
	for _, g := range []*Graph{MustNew(0, nil), MustNew(1, nil), MustNew(1, [][2]int{{0, 0}}), MustNew(5, nil)} {
		tv, ht := bothBiconn(t, g)
		sameBiconn(t, "tiny", tv, ht)
		if ht.NumBlocks != 0 {
			t.Errorf("NumBlocks = %d, want 0", ht.NumBlocks)
		}
	}
}

// Every bridge is in every spanning forest (a forest missing a bridge
// could not span the bridge's two sides) — a cross-check tying the
// spanning-forest machinery to the biconnectivity machinery.
func TestBridgesAreForcedForestEdges(t *testing.T) {
	for trial := uint64(0); trial < 20; trial++ {
		g := randomGraphQuick(trial * 131)
		b, err := BiconnectedComponents(g, BiconnOptions{})
		if err != nil {
			t.Fatal(err)
		}
		forest := SpanningForest(g)
		inForest := make([]bool, g.NumEdges())
		for _, id := range forest {
			inForest[id] = true
		}
		for i := 0; i < g.NumEdges(); i++ {
			// A parallel twin can substitute for a specific edge id,
			// so check bridges by endpoint pair, not by id.
			if !b.Bridge[i] || inForest[i] {
				continue
			}
			u, v := g.Edge(i)
			covered := false
			for _, id := range forest {
				fu, fv := g.Edge(id)
				if fu == u && fv == v || fu == v && fv == u {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("trial %d: bridge %d (%d-%d) missing from spanning forest", trial, i, u, v)
			}
		}
	}
}
