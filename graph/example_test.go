package graph_test

import (
	"fmt"

	"listrank/graph"
)

func ExampleConnectedComponents() {
	// Two triangles and an isolated vertex.
	g := graph.MustNew(7, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 3},
	})
	cc := graph.ConnectedComponents(g, graph.CCOptions{})
	fmt.Println("components:", cc.Count)
	fmt.Println("0 and 2 together:", cc.Same(0, 2))
	fmt.Println("0 and 3 together:", cc.Same(0, 3))
	// Output:
	// components: 3
	// 0 and 2 together: true
	// 0 and 3 together: false
}

func ExampleBiconnectedComponents() {
	// Two triangles sharing vertex 2 — a classic "bowtie": one
	// articulation point, two blocks, no bridges.
	g := graph.MustNew(5, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{2, 3}, {3, 4}, {4, 2},
	})
	b, err := graph.BiconnectedComponents(g, graph.BiconnOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("blocks:", b.NumBlocks)
	fmt.Println("vertex 2 is an articulation point:", b.Articulation[2])
	fmt.Println("edge 0-1 and edge 1-2 in the same block:", b.EdgeBlock[0] == b.EdgeBlock[1])
	fmt.Println("edge 1-2 and edge 2-3 in the same block:", b.EdgeBlock[1] == b.EdgeBlock[3])
	// Output:
	// blocks: 2
	// vertex 2 is an articulation point: true
	// edge 0-1 and edge 1-2 in the same block: true
	// edge 1-2 and edge 2-3 in the same block: false
}

func ExampleSpanningForest() {
	g := graph.Cycle(4) // one redundant edge
	forest := graph.SpanningForest(g)
	fmt.Println("forest edges:", len(forest), "of", g.NumEdges())
	// Output:
	// forest edges: 3 of 4
}
