package graph

import (
	"fmt"
	"testing"
	"testing/quick"

	"listrank/internal/rng"
)

// testFamilies returns a spread of graph shapes covering the families
// the prior implementation studies used plus adversarial edge cases.
func testFamilies() map[string]*Graph {
	return map[string]*Graph{
		"empty":        MustNew(0, nil),
		"one-vertex":   MustNew(1, nil),
		"one-loop":     MustNew(1, [][2]int{{0, 0}}),
		"two-isolated": MustNew(2, nil),
		"single-edge":  MustNew(2, [][2]int{{0, 1}}),
		"parallel":     MustNew(2, [][2]int{{0, 1}, {0, 1}, {1, 0}}),
		"path":         Path(257),
		"cycle":        Cycle(100),
		"grid":         Grid(17, 23),
		"complete":     Complete(24),
		"star":         Star(64),
		"tree":         RandomTree(500, 7),
		"gnm-sparse":   RandomGNM(400, 200, 3),
		"gnm-equal":    RandomGNM(300, 300, 4),
		"gnm-dense":    RandomGNM(128, 2048, 5),
		"disjoint":     Disjoint(Cycle(10), Path(20), Complete(5), MustNew(3, nil)),
		"loops-only":   MustNew(5, [][2]int{{0, 0}, {3, 3}}),
	}
}

func sameComponents(t *testing.T, what string, got, want *Components) {
	t.Helper()
	if got.Count != want.Count {
		t.Errorf("%s: Count = %d, want %d", what, got.Count, want.Count)
	}
	for v := range want.Label {
		if got.Label[v] != want.Label[v] {
			t.Errorf("%s: Label[%d] = %d, want %d", what, v, got.Label[v], want.Label[v])
			return
		}
	}
}

func TestComponentsAgreement(t *testing.T) {
	algos := []CCAlgorithm{CCHookShortcut, CCSerialDFS, CCUnionFind}
	for name, g := range testFamilies() {
		want := componentsDFS(g)
		for _, a := range algos {
			got := ConnectedComponents(g, CCOptions{Algorithm: a})
			sameComponents(t, fmt.Sprintf("%s/%s", name, a), got, want)
		}
	}
}

func TestComponentsCanonicalLabels(t *testing.T) {
	g := RandomGNM(300, 250, 9)
	cc := ConnectedComponents(g, CCOptions{})
	for v := 0; v < g.Len(); v++ {
		if cc.Label[v] > int32(v) {
			t.Fatalf("Label[%d] = %d > %d: not the component minimum", v, cc.Label[v], v)
		}
		if cc.Label[cc.Label[v]] != cc.Label[v] {
			t.Fatalf("Label[Label[%d]] = %d != Label[%d] = %d: not idempotent",
				v, cc.Label[cc.Label[v]], v, cc.Label[v])
		}
	}
	// Endpoints of every edge share a label.
	for i := 0; i < g.NumEdges(); i++ {
		u, v := g.Edge(i)
		if !cc.Same(u, v) {
			t.Fatalf("edge %d-%d crosses components", u, v)
		}
	}
	// Count matches the number of distinct labels.
	seen := map[int32]bool{}
	for _, l := range cc.Label {
		seen[l] = true
	}
	if len(seen) != cc.Count {
		t.Errorf("Count = %d but %d distinct labels", cc.Count, len(seen))
	}
}

func TestComponentsProcSweep(t *testing.T) {
	g := Disjoint(Grid(20, 20), Cycle(50), RandomGNM(200, 100, 2))
	want := componentsDFS(g)
	for _, p := range []int{1, 2, 3, 4, 8, 64} {
		got := ConnectedComponents(g, CCOptions{Algorithm: CCHookShortcut, Procs: p})
		sameComponents(t, fmt.Sprintf("p=%d", p), got, want)
	}
}

// randomGraphQuick builds a random graph from quick-check randomness.
func randomGraphQuick(seed uint64) *Graph {
	r := rng.New(seed)
	n := 1 + r.Intn(40)
	m := r.Intn(3 * n)
	edges := make([][2]int, m)
	for i := range edges {
		edges[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	return MustNew(n, edges)
}

func TestComponentsQuick(t *testing.T) {
	f := func(seed uint64, algoPick uint8) bool {
		g := randomGraphQuick(seed)
		want := componentsDFS(g)
		algo := []CCAlgorithm{CCHookShortcut, CCUnionFind}[int(algoPick)%2]
		got := ConnectedComponents(g, CCOptions{Algorithm: algo, Procs: 1 + int(algoPick%4)})
		if got.Count != want.Count {
			return false
		}
		for v := range want.Label {
			if got.Label[v] != want.Label[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCCAlgorithmString(t *testing.T) {
	for a, want := range map[CCAlgorithm]string{
		CCHookShortcut: "hook-shortcut",
		CCSerialDFS:    "serial-dfs",
		CCUnionFind:    "union-find",
		CCAlgorithm(9): "unknown",
	} {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(a), got, want)
		}
	}
}

// --- Spanning forest ---------------------------------------------------

func checkSpanningForest(t *testing.T, what string, g *Graph, forest []int) {
	t.Helper()
	cc := componentsDFS(g)
	if len(forest) != g.Len()-cc.Count {
		t.Errorf("%s: forest has %d edges, want n-#comp = %d", what, len(forest), g.Len()-cc.Count)
	}
	// Forest edges must be acyclic (all accepted by union-find) and
	// reconnect exactly the original components.
	parent := make([]int, g.Len())
	for v := range parent {
		parent[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, id := range forest {
		if id < 0 || id >= g.NumEdges() {
			t.Fatalf("%s: forest edge id %d out of range", what, id)
		}
		u, v := g.Edge(id)
		if u == v {
			t.Fatalf("%s: forest contains self-loop %d", what, id)
		}
		ru, rv := find(u), find(v)
		if ru == rv {
			t.Fatalf("%s: forest edge %d (%d-%d) closes a cycle", what, id, u, v)
		}
		parent[ru] = rv
	}
	for i := 0; i < g.NumEdges(); i++ {
		u, v := g.Edge(i)
		if find(u) != find(v) {
			t.Fatalf("%s: edge %d-%d not spanned by forest", what, u, v)
		}
	}
}

func TestSpanningForest(t *testing.T) {
	for name, g := range testFamilies() {
		checkSpanningForest(t, name, g, SpanningForest(g))
	}
}

// TestSpanningForestSeeds checks the forest over random graphs drawn
// from several generator seeds, at densities on both sides of the
// connectivity threshold.
func TestSpanningForestSeeds(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		for _, m := range []int{150, 600} {
			g := RandomGNM(300, m, seed)
			checkSpanningForest(t, fmt.Sprintf("seed=%d/m=%d", seed, m), g, SpanningForest(g))
		}
	}
}
