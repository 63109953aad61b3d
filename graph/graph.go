// Package graph provides parallel graph connectivity and
// biconnectivity built on the library's list-ranking and Euler-tour
// primitives.
//
// The paper's introduction motivates list ranking by the pointer-based
// graph algorithms stacked on top of it — the prior implementation
// studies it cites (Lumetta et al., Greiner, Hsu-Ramachandran-Dean)
// are all connected-components and ear-decomposition codes — and its
// §7 closes by asking "whether having a fast list-ranking
// implementation helps in making other pointer-based applications
// practical". This package answers at the graph level:
//
//   - Connected components with one parallel algorithm (hook-and-
//     shortcut in the Shiloach-Vishkin tradition, whose shortcut step
//     is exactly Wyllie-style pointer jumping) and two serial
//     baselines (depth-first search and union-find).
//   - Spanning forests by union-find.
//   - Biconnected components, articulation points and bridges by the
//     Tarjan-Vishkin reduction: one spanning tree, one Euler tour,
//     list-rank-powered preorder/subtree statistics, low/high values,
//     then connected components of an auxiliary graph — every stage a
//     consumer of this library's primitives — verified against a
//     serial Hopcroft-Tarjan lowpoint baseline.
//
// Graphs are undirected and simple at the interface (parallel edges
// and self-loops are accepted and handled, but carry no information).
// Vertices are 0-based.
package graph

import (
	"fmt"

	"listrank/internal/rng"
)

// Graph is an undirected graph in compressed sparse row form. Build
// one with New or a generator; the zero value is an empty graph.
type Graph struct {
	n     int
	edges [][2]int32 // as given, u-v (self-loops and duplicates kept)
	// CSR over both directions of every non-loop edge.
	adjStart []int32 // len n+1; neighbors of v are adj[adjStart[v]:adjStart[v+1]]
	adjVert  []int32 // neighbor vertex
	adjEdge  []int32 // index into edges for each adjacency entry
}

// New builds a graph on n vertices from an edge list. Endpoints must
// lie in [0, n). Self-loops and parallel edges are allowed; they are
// kept in the edge list (so per-edge outputs stay index-aligned) but
// never affect connectivity or biconnectivity answers.
func New(n int, edges [][2]int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	g := &Graph{n: n, edges: make([][2]int32, len(edges))}
	deg := make([]int32, n+1)
	for i, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge %d (%d-%d) out of range [0,%d)", i, u, v, n)
		}
		g.edges[i] = [2]int32{int32(u), int32(v)}
		if u != v {
			deg[u]++
			deg[v]++
		}
	}
	g.adjStart = make([]int32, n+1)
	for v := 0; v < n; v++ {
		g.adjStart[v+1] = g.adjStart[v] + deg[v]
	}
	total := g.adjStart[n]
	g.adjVert = make([]int32, total)
	g.adjEdge = make([]int32, total)
	fill := make([]int32, n)
	copy(fill, g.adjStart[:n])
	for i, e := range g.edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		g.adjVert[fill[u]] = v
		g.adjEdge[fill[u]] = int32(i)
		fill[u]++
		g.adjVert[fill[v]] = u
		g.adjEdge[fill[v]] = int32(i)
		fill[v]++
	}
	return g, nil
}

// MustNew is New for known-good inputs; it panics on error.
func MustNew(n int, edges [][2]int) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return g.n }

// NumEdges returns the number of edges as given (including any
// self-loops and parallel edges).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the endpoints of edge i.
func (g *Graph) Edge(i int) (u, v int) {
	e := g.edges[i]
	return int(e[0]), int(e[1])
}

// Degree returns the number of incident non-loop edge endpoints of v
// (a parallel edge counts each time).
func (g *Graph) Degree(v int) int {
	return int(g.adjStart[v+1] - g.adjStart[v])
}

// Neighbors calls f for every non-loop adjacency of v with the
// neighbor vertex and the edge index, in no particular order.
func (g *Graph) Neighbors(v int, f func(w, edge int)) {
	for i := g.adjStart[v]; i < g.adjStart[v+1]; i++ {
		f(int(g.adjVert[i]), int(g.adjEdge[i]))
	}
}

// --- Generators -----------------------------------------------------
//
// The experiment harness and tests draw graphs from the same families
// the prior implementation studies used: sparse random graphs, meshes,
// and trees, plus adversarial shapes (paths, cliques, stars).

// RandomGNM returns a uniform random graph with n vertices and m
// edges, sampled with replacement (a few parallel edges may occur, as
// in the standard multigraph G(n,m) model; they are harmless).
func RandomGNM(n, m int, seed uint64) *Graph {
	r := rng.New(seed)
	edges := make([][2]int, m)
	for i := range edges {
		u := r.Intn(n)
		v := r.Intn(n)
		edges[i] = [2]int{u, v}
	}
	return MustNew(n, edges)
}

// Grid returns the rows×cols mesh graph, the workload class of the
// Lumetta et al. connected-components study the paper cites.
func Grid(rows, cols int) *Graph {
	n := rows * cols
	edges := make([][2]int, 0, 2*n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				edges = append(edges, [2]int{v, v + 1})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{v, v + cols})
			}
		}
	}
	return MustNew(n, edges)
}

// Path returns the path graph on n vertices — the graph whose
// spanning tree is one long chain, the worst case for any algorithm
// whose round count follows tree depth and the best advertisement for
// the Euler-tour methods here, which are depth-oblivious.
func Path(n int) *Graph {
	if n <= 0 {
		return MustNew(max(n, 0), nil)
	}
	edges := make([][2]int, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	return MustNew(n, edges)
}

// Cycle returns the cycle graph on n vertices (n ≥ 3 for a simple
// cycle; smaller n degenerate to a path or a single vertex).
func Cycle(n int) *Graph {
	if n < 3 {
		return Path(n)
	}
	edges := make([][2]int, n)
	for v := 0; v < n; v++ {
		edges[v] = [2]int{v, (v + 1) % n}
	}
	return MustNew(n, edges)
}

// Complete returns the complete graph on n vertices.
func Complete(n int) *Graph {
	edges := make([][2]int, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return MustNew(n, edges)
}

// Star returns the star graph: vertex 0 adjacent to all others. Every
// non-leaf edge is a bridge and the center is an articulation point —
// a biconnectivity edge case.
func Star(n int) *Graph {
	if n <= 0 {
		return MustNew(max(n, 0), nil)
	}
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	return MustNew(n, edges)
}

// RandomTree returns a uniform random labeled tree on n vertices
// (attachment to a random earlier vertex under a random relabeling,
// which gives unbounded depth variety without Prüfer decoding).
func RandomTree(n int, seed uint64) *Graph {
	if n <= 1 {
		return MustNew(n, nil)
	}
	r := rng.New(seed)
	perm := r.Perm(n)
	edges := make([][2]int, n-1)
	for i := 1; i < n; i++ {
		edges[i-1] = [2]int{perm[r.Intn(i)], perm[i]}
	}
	return MustNew(n, edges)
}

// Disjoint returns the disjoint union of the given graphs, with
// vertex and edge numbering offset in argument order.
func Disjoint(gs ...*Graph) *Graph {
	n := 0
	var edges [][2]int
	for _, g := range gs {
		for _, e := range g.edges {
			edges = append(edges, [2]int{n + int(e[0]), n + int(e[1])})
		}
		n += g.n
	}
	return MustNew(n, edges)
}

// WithExtraEdges returns a copy of g with the extra edges appended.
func (g *Graph) WithExtraEdges(extra [][2]int) (*Graph, error) {
	edges := make([][2]int, 0, len(g.edges)+len(extra))
	for _, e := range g.edges {
		edges = append(edges, [2]int{int(e[0]), int(e[1])})
	}
	edges = append(edges, extra...)
	return New(g.n, edges)
}
