package graph

import (
	"testing"
)

// decodeGraph turns raw fuzz bytes into a small graph: the first byte
// picks the vertex count, the rest pair up into edges (modulo n), so
// every input is valid and the fuzzer explores degenerate shapes —
// self-loops, parallel edges, isolated vertices — for free.
func decodeGraph(data []byte) *Graph {
	if len(data) == 0 {
		return MustNew(0, nil)
	}
	n := 1 + int(data[0])%32
	data = data[1:]
	edges := make([][2]int, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		edges = append(edges, [2]int{int(data[i]) % n, int(data[i+1]) % n})
	}
	return MustNew(n, edges)
}

func FuzzComponents(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{8})
	f.Add([]byte{16, 0, 1, 0, 1, 2, 2, 3, 4, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		want := componentsDFS(g)
		for _, a := range []CCAlgorithm{CCHookShortcut, CCUnionFind} {
			got := ConnectedComponents(g, CCOptions{Algorithm: a, Procs: 3})
			if got.Count != want.Count {
				t.Fatalf("%s: Count = %d, want %d", a, got.Count, want.Count)
			}
			for v := range want.Label {
				if got.Label[v] != want.Label[v] {
					t.Fatalf("%s: Label[%d] = %d, want %d", a, v, got.Label[v], want.Label[v])
				}
			}
		}
		forest := SpanningForest(g)
		if len(forest) != g.Len()-want.Count {
			t.Fatalf("forest size %d, want %d", len(forest), g.Len()-want.Count)
		}
	})
}

func FuzzBiconnectivity(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{5, 0, 1, 0, 1})
	f.Add([]byte{2, 0, 0, 1, 1})
	f.Add([]byte{12, 0, 1, 1, 2, 2, 3, 3, 0, 3, 4, 4, 5, 5, 6, 6, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		want := biconnSerial(g)
		got, err := BiconnectedComponents(g, BiconnOptions{Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumBlocks != want.NumBlocks {
			t.Fatalf("NumBlocks = %d, want %d", got.NumBlocks, want.NumBlocks)
		}
		for i := range want.EdgeBlock {
			if got.EdgeBlock[i] != want.EdgeBlock[i] {
				t.Fatalf("EdgeBlock[%d] = %d, want %d", i, got.EdgeBlock[i], want.EdgeBlock[i])
			}
			if got.Bridge[i] != want.Bridge[i] {
				t.Fatalf("Bridge[%d] = %v, want %v", i, got.Bridge[i], want.Bridge[i])
			}
		}
		for v := range want.Articulation {
			if got.Articulation[v] != want.Articulation[v] {
				t.Fatalf("Articulation[%d] = %v, want %v", v, got.Articulation[v], want.Articulation[v])
			}
		}
	})
}
