package graph

import (
	"fmt"
	"runtime"

	"listrank"
	"listrank/internal/arena"
	"listrank/internal/par"
	"listrank/tree"
)

// Biconnectivity is the full 2-connectivity structure of a graph:
// the partition of its edges into biconnected components (blocks),
// its articulation points, and its bridges.
//
// Block labels are canonical — each block is labeled by the smallest
// edge index it contains — so two Biconnectivity values for the same
// graph are directly comparable regardless of which algorithm or
// spanning tree produced them. Self-loops belong to no block and get
// label −1.
type Biconnectivity struct {
	// EdgeBlock[i] is the canonical label of edge i's block.
	EdgeBlock []int32
	// NumBlocks is the number of distinct blocks.
	NumBlocks int
	// Articulation[v] reports whether removing v disconnects its
	// component. Equivalently: v is incident to two or more blocks.
	Articulation []bool
	// Bridge[i] reports whether edge i is a bridge (its block is the
	// single edge itself; a parallel pair is a two-edge block and
	// therefore not a bridge).
	Bridge []bool
}

// BiconnAlgorithm selects a biconnectivity implementation.
type BiconnAlgorithm int

const (
	// BiconnTarjanVishkin (default) is the Euler-tour reduction:
	// spanning forest by union-find (SpanningForest), rooting by
	// Euler-circuit list ranking (tree.RootAt), preorder and subtree
	// sizes by tour scans, low/high by range queries over preorder
	// intervals, then connected components of the auxiliary graph by
	// hook-and-shortcut. Every phase after the forest is a parallel
	// consumer of this library's list primitives; the forest is serial
	// union-find.
	BiconnTarjanVishkin BiconnAlgorithm = iota
	// BiconnSerialDFS is the Hopcroft-Tarjan lowpoint algorithm with
	// an explicit edge stack — the serial baseline.
	BiconnSerialDFS
)

// String returns the algorithm's short name.
func (a BiconnAlgorithm) String() string {
	if a == BiconnSerialDFS {
		return "hopcroft-tarjan"
	}
	return "tarjan-vishkin"
}

// BiconnOptions tunes BiconnectedComponents. The zero value selects
// the parallel Tarjan-Vishkin algorithm on all available CPUs.
type BiconnOptions struct {
	// Algorithm selects the implementation (default BiconnTarjanVishkin).
	Algorithm BiconnAlgorithm
	// Procs is the number of worker goroutines for every parallel
	// stage; 0 means GOMAXPROCS.
	Procs int
}

func (o BiconnOptions) procs() int {
	if o.Procs > 0 {
		return o.Procs
	}
	return runtime.GOMAXPROCS(0)
}

// BiconnectedComponents computes the blocks, articulation points and
// bridges of g (which may be disconnected; components are independent).
// Working space comes from a pooled Engine; hold an explicit Engine
// and call BiconnectedComponentsInto to control reuse directly.
func BiconnectedComponents(g *Graph, opt BiconnOptions) (*Biconnectivity, error) {
	en := getEngine(g.n)
	out := &Biconnectivity{}
	err := en.BiconnectedComponentsInto(out, g, opt)
	putEngine(g.n, en)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (en *Engine) biconnTarjanVishkin(out *Biconnectivity, g *Graph, opt BiconnOptions) error {
	n := g.n
	p := opt.procs()
	out.EdgeBlock = arena.Grow(out.EdgeBlock, len(g.edges))
	out.Articulation = arena.Zeroed(out.Articulation, n)
	out.Bridge = arena.Zeroed(out.Bridge, len(g.edges))
	out.NumBlocks = 0
	if n == 0 {
		return nil
	}

	// 1. Spanning forest by union-find. Blocks are graph properties,
	// so the result does not depend on which forest is found.
	en.forestIDs = en.SpanningForestInto(en.forestIDs, g)
	forest := en.forestIDs
	en.isTree = arena.Zeroed(en.isTree, len(g.edges))
	isTree := en.isTree
	for _, id := range forest {
		isTree[id] = true
	}

	// 2. Root every component. A connected graph is rooted by ranking
	// its Euler circuit (the embedded tree.Engine at work); a forest
	// falls back to breadth-first search per component, which also
	// pins down each component's root.
	parent, err := en.rootForest(g, forest, n, p)
	if err != nil {
		return err
	}

	// treeEdgeID[v] = index of the tree edge (parent[v], v).
	en.treeEdgeID = arena.Filled(en.treeEdgeID, n, -1)
	treeEdgeID := en.treeEdgeID
	for _, id := range forest {
		u, w := g.edges[id][0], g.edges[id][1]
		switch {
		case parent[w] == int(u):
			treeEdgeID[w] = int32(id)
		case parent[u] == int(w):
			treeEdgeID[u] = int32(id)
		default:
			return fmt.Errorf("graph: internal: forest edge %d (%d-%d) matches no parent link", id, u, w)
		}
	}

	// 3. Splice a virtual super-root above the component roots so one
	// Euler tour serves the whole forest, then pull preorder numbers
	// and subtree sizes out of the tour with list ranks. Real vertices
	// keep contiguous preorder intervals; the virtual vertex and its
	// virtual edges never enter the auxiliary graph.
	sr := n
	en.parentFull = arena.Grow(en.parentFull, n+1)
	parentFull := en.parentFull
	copy(parentFull, parent)
	for v := 0; v < n; v++ {
		if parent[v] == -1 {
			parentFull[v] = sr
		}
	}
	parentFull[sr] = -1
	t, err := tree.New(parentFull, listrank.Options{Procs: opt.Procs})
	if err != nil {
		return fmt.Errorf("graph: internal: %w", err)
	}
	pre64 := t.Preorder()
	size64 := t.SubtreeSizes()
	en.pre = arena.Grow(en.pre, n+1)
	en.sz = arena.Grow(en.sz, n+1)
	pre, size := en.pre, en.sz
	en.fanout().ForChunks(n+1, par.Procs(p, n+1), func(w, lo, hi int) {
		for v := lo; v < hi; v++ {
			pre[v] = int32(pre64[v])
			size[v] = int32(size64[v])
		}
	})

	// 4. Per-vertex local extremes over incident nontree edges, laid
	// out in preorder so a subtree becomes the interval
	// [pre(v), pre(v)+size(v)).
	en.loA = arena.Grow(en.loA, n+1)
	en.hiA = arena.Grow(en.hiA, n+1)
	loA, hiA := en.loA, en.hiA
	loA[pre[sr]] = pre[sr]
	hiA[pre[sr]] = pre[sr]
	en.fanout().ForChunks(n, par.Procs(p, n), func(w, lo, hi int) {
		for v := lo; v < hi; v++ {
			lv, hv := pre[v], pre[v]
			for i := g.adjStart[v]; i < g.adjStart[v+1]; i++ {
				if isTree[g.adjEdge[i]] {
					continue
				}
				pw := pre[g.adjVert[i]]
				if pw < lv {
					lv = pw
				}
				if pw > hv {
					hv = pw
				}
			}
			loA[pre[v]] = lv
			hiA[pre[v]] = hv
		}
	})
	minT := newSparseTable(loA, true, p)
	maxT := newSparseTable(hiA, false, p)
	low := func(v int32) int32 { return minT.query(int(pre[v]), int(pre[v]+size[v])) }
	high := func(v int32) int32 { return maxT.query(int(pre[v]), int(pre[v]+size[v])) }

	// Ancestry in preorder terms: u is a (weak) ancestor of w iff
	// pre(u) ≤ pre(w) < pre(u)+size(u).
	unrelated := func(u, w int32) bool {
		if pre[u] > pre[w] {
			u, w = w, u
		}
		return pre[w] >= pre[u]+size[u]
	}

	// 5. Auxiliary graph on the tree edges, each identified with its
	// child endpoint. Rule (i): a nontree edge joining unrelated
	// subtrees glues their two tree edges. Rule (ii): the tree edge
	// (v,w) glues to (p(v),v) when some edge escapes from w's subtree
	// above v or past v's subtree.
	auxBufs := make([][][2]int, par.Procs(p, len(g.edges)+n))
	en.fanout().ForChunks(len(g.edges), par.Procs(p, len(g.edges)), func(wk, lo, hi int) {
		var buf [][2]int
		for i := lo; i < hi; i++ {
			e := g.edges[i]
			if isTree[i] || e[0] == e[1] {
				continue
			}
			if unrelated(e[0], e[1]) {
				buf = append(buf, [2]int{int(e[0]), int(e[1])})
			}
		}
		auxBufs[wk] = buf
	})
	ruleII := make([][][2]int, par.Procs(p, n))
	en.fanout().ForChunks(n, par.Procs(p, n), func(wk, lo, hi int) {
		var buf [][2]int
		for w := lo; w < hi; w++ {
			v := parentFull[w]
			if v == sr || v == -1 || parentFull[v] == sr {
				continue // w is a root or a root's child: (p(v),v) is virtual or absent
			}
			if low(int32(w)) < pre[v] || high(int32(w)) >= pre[v]+size[v] {
				buf = append(buf, [2]int{v, w})
			}
		}
		ruleII[wk] = buf
	})
	var auxEdges [][2]int
	for _, b := range auxBufs {
		auxEdges = append(auxEdges, b...)
	}
	for _, b := range ruleII {
		auxEdges = append(auxEdges, b...)
	}
	aux, err := New(n, auxEdges)
	if err != nil {
		return fmt.Errorf("graph: internal: %w", err)
	}

	// 6. Blocks = connected components of the auxiliary graph, found
	// by hook-and-shortcut (pointer jumping again), into the engine's
	// reused labeling.
	en.ComponentsInto(&en.auxCC, aux, CCOptions{Algorithm: CCHookShortcut, Procs: opt.Procs})
	cc := &en.auxCC

	// 7. Per-edge block representative: a tree edge uses its child's
	// label; a nontree edge uses its deeper endpoint's (which is never
	// a component root, and rule (i) guarantees both endpoints agree
	// when they are unrelated).
	en.rep = arena.Grow(en.rep, len(g.edges))
	rep := en.rep
	en.fanout().ForChunks(len(g.edges), par.Procs(p, len(g.edges)), func(wk, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := g.edges[i]
			if e[0] == e[1] {
				rep[i] = -1
				continue
			}
			var child int32
			if isTree[i] {
				if parent[e[1]] == int(e[0]) {
					child = e[1]
				} else {
					child = e[0]
				}
				if treeEdgeID[child] != int32(i) {
					// A parallel twin of a tree edge: it is a nontree
					// edge gluing to the same child.
					rep[i] = cc.Label[child]
					continue
				}
			} else if pre[e[0]] > pre[e[1]] {
				child = e[0]
			} else {
				child = e[1]
			}
			rep[i] = cc.Label[child]
		}
	})

	en.finishBiconnectivity(g, rep, out)
	return nil
}

// rootForest orients the spanning forest: parent[v] = v's parent, -1
// at each component root. Connected graphs go through the
// Euler-circuit list ranking of the embedded tree.Engine; true forests
// use breadth-first search per component. The returned slice is
// engine-owned.
func (en *Engine) rootForest(g *Graph, forest []int, n, p int) ([]int, error) {
	en.parentV = arena.Grow(en.parentV, n)
	parent := en.parentV
	if len(forest) == n-1 && n > 0 {
		en.pairs = arena.Grow(en.pairs, len(forest))
		for i, id := range forest {
			en.pairs[i] = [2]int{int(g.edges[id][0]), int(g.edges[id][1])}
		}
		if err := en.treeEngine().RootAtInto(parent, n, en.pairs, 0, listrank.Options{Procs: p}); err != nil {
			return nil, err
		}
		return parent, nil
	}
	// CSR over forest edges.
	en.deg = arena.Zeroed(en.deg, n+1)
	deg := en.deg
	for _, id := range forest {
		deg[g.edges[id][0]]++
		deg[g.edges[id][1]]++
	}
	en.bstart = arena.Grow(en.bstart, n+1)
	start := en.bstart
	start[0] = 0
	for v := 0; v < n; v++ {
		start[v+1] = start[v] + deg[v]
	}
	en.badj = arena.Grow(en.badj, int(start[n]))
	adj := en.badj
	en.bfill = arena.Grow(en.bfill, n)
	fill := en.bfill
	copy(fill, start[:n])
	for _, id := range forest {
		u, w := g.edges[id][0], g.edges[id][1]
		adj[fill[u]] = w
		fill[u]++
		adj[fill[w]] = u
		fill[w]++
	}
	for v := range parent {
		parent[v] = -2 // unvisited
	}
	queue := en.stack[:0]
	for s := 0; s < n; s++ {
		if parent[s] != -2 {
			continue
		}
		parent[s] = -1
		queue = append(queue[:0], int32(s))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for i := start[v]; i < start[v+1]; i++ {
				w := adj[i]
				if parent[w] == -2 {
					parent[w] = int(v)
					queue = append(queue, w)
				}
			}
		}
	}
	en.stack = queue[:0]
	return parent, nil
}

// finishBiconnectivity canonicalizes per-edge block representatives
// (rep[i] in [0,n) or -1) into minimum-edge-index labels and derives
// block count, articulation points and bridges. out's arrays must
// already be sized (Articulation and Bridge zeroed).
func (en *Engine) finishBiconnectivity(g *Graph, rep []int32, out *Biconnectivity) {
	n := g.n
	en.minEdge = arena.Filled(en.minEdge, n, -1)
	en.blockSize = arena.Zeroed(en.blockSize, n)
	minEdge, blockSize := en.minEdge, en.blockSize
	numBlocks := 0
	for i, r := range rep {
		if r < 0 {
			continue
		}
		if minEdge[r] == -1 {
			minEdge[r] = int32(i)
			numBlocks++
		}
		blockSize[r]++
	}
	for i, r := range rep {
		if r < 0 {
			out.EdgeBlock[i] = -1
			continue
		}
		out.EdgeBlock[i] = minEdge[r]
		out.Bridge[i] = blockSize[r] == 1
	}
	out.NumBlocks = numBlocks
	// A vertex is an articulation point iff it touches two blocks.
	for v := 0; v < n; v++ {
		first := int32(-1)
		for i := g.adjStart[v]; i < g.adjStart[v+1]; i++ {
			b := out.EdgeBlock[g.adjEdge[i]]
			if b < 0 {
				continue
			}
			if first == -1 {
				first = b
			} else if b != first {
				out.Articulation[v] = true
				break
			}
		}
	}
}
