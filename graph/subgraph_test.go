package graph

import (
	"testing"
)

func TestSubgraph(t *testing.T) {
	// 0-1, 1-2, 2-0 (triangle), 2-3 (spur), 3-3 (loop).
	g := MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 3}})
	sub, oldV, oldE := g.Subgraph([]int{2, 0, 1})
	if sub.Len() != 3 {
		t.Fatalf("Len = %d, want 3", sub.Len())
	}
	if sub.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (triangle only)", sub.NumEdges())
	}
	// oldV order follows the input list.
	for i, want := range []int{2, 0, 1} {
		if oldV[i] != want {
			t.Errorf("oldVertex[%d] = %d, want %d", i, oldV[i], want)
		}
	}
	// Every surviving edge maps back to an original edge with the
	// same endpoints (translated).
	for i := 0; i < sub.NumEdges(); i++ {
		nu, nv := sub.Edge(i)
		ou, ov := g.Edge(oldE[i])
		if !(oldV[nu] == ou && oldV[nv] == ov || oldV[nu] == ov && oldV[nv] == ou) {
			t.Errorf("edge %d: %d-%d maps to original %d-%d", i, nu, nv, ou, ov)
		}
	}
}

func TestSubgraphEdgeCases(t *testing.T) {
	g := Cycle(5)
	// Duplicates collapse; out-of-range ignored.
	sub, oldV, _ := g.Subgraph([]int{1, 1, 2, 99, -3})
	if sub.Len() != 2 || len(oldV) != 2 {
		t.Fatalf("Len = %d, want 2", sub.Len())
	}
	if sub.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 (the 1-2 edge)", sub.NumEdges())
	}
	// Empty selection.
	sub, _, _ = g.Subgraph(nil)
	if sub.Len() != 0 || sub.NumEdges() != 0 {
		t.Error("empty selection should give an empty graph")
	}
	// Self-loop kept when its vertex is kept.
	g2 := MustNew(2, [][2]int{{0, 0}, {0, 1}})
	sub, _, oldE := g2.Subgraph([]int{0})
	if sub.NumEdges() != 1 || oldE[0] != 0 {
		t.Errorf("self-loop should survive: %d edges, oldEdge %v", sub.NumEdges(), oldE)
	}
}

func TestSplitComponents(t *testing.T) {
	g := Disjoint(Cycle(4), Path(3), MustNew(1, nil))
	comps := SplitComponents(g, CCOptions{})
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	// Ordered by minimum vertex: cycle (0..3), path (4..6), isolate (7).
	wantSizes := []int{4, 3, 1}
	wantEdges := []int{4, 2, 0}
	for i, c := range comps {
		if c.G.Len() != wantSizes[i] {
			t.Errorf("component %d: %d vertices, want %d", i, c.G.Len(), wantSizes[i])
		}
		if c.G.NumEdges() != wantEdges[i] {
			t.Errorf("component %d: %d edges, want %d", i, c.G.NumEdges(), wantEdges[i])
		}
		// Each component must itself be connected.
		cc := ConnectedComponents(c.G, CCOptions{Algorithm: CCSerialDFS})
		if cc.Count != 1 {
			t.Errorf("component %d not connected", i)
		}
		// Mappings must be consistent.
		for v := 0; v < c.G.Len(); v++ {
			if c.OldVertex[v] < 0 || c.OldVertex[v] >= g.Len() {
				t.Fatalf("component %d: OldVertex[%d] out of range", i, v)
			}
		}
	}
	// All vertices and all edges accounted for exactly once.
	seenV := make([]bool, g.Len())
	seenE := make([]bool, g.NumEdges())
	for _, c := range comps {
		for _, v := range c.OldVertex {
			if seenV[v] {
				t.Fatalf("vertex %d in two components", v)
			}
			seenV[v] = true
		}
		for _, e := range c.OldEdge {
			if seenE[e] {
				t.Fatalf("edge %d in two components", e)
			}
			seenE[e] = true
		}
	}
	for v, s := range seenV {
		if !s {
			t.Errorf("vertex %d unassigned", v)
		}
	}
	for e, s := range seenE {
		if !s {
			t.Errorf("edge %d unassigned", e)
		}
	}
}

func TestSplitComponentsBiconnPerComponent(t *testing.T) {
	// Splitting then running biconnectivity per component must agree
	// with running it whole.
	g := Disjoint(Grid(5, 5), Cycle(8), Star(6))
	whole, err := BiconnectedComponents(g, BiconnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range SplitComponents(g, CCOptions{}) {
		part, err := BiconnectedComponents(c.G, BiconnOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range part.EdgeBlock {
			// Translate and compare block partitions: two edges share
			// a block in the part iff they do in the whole.
			for j := range part.EdgeBlock {
				same := part.EdgeBlock[i] == part.EdgeBlock[j]
				wholeSame := whole.EdgeBlock[c.OldEdge[i]] == whole.EdgeBlock[c.OldEdge[j]]
				if same != wholeSame {
					t.Fatalf("edges %d,%d: partition disagrees with whole-graph run", c.OldEdge[i], c.OldEdge[j])
				}
			}
		}
		for v := range part.Articulation {
			if part.Articulation[v] != whole.Articulation[c.OldVertex[v]] {
				t.Fatalf("vertex %d: articulation disagrees", c.OldVertex[v])
			}
		}
	}
}
