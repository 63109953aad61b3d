package graph

import "listrank/internal/arena"

// SpanningForest returns the indices of edges forming a spanning
// forest of g (one tree per connected component, so exactly
// n − #components edges, none of them self-loops), found by weighted
// union-find over the edges in index order: an edge joins the forest
// when it merges two classes.
//
// Working space comes from a pooled Engine; hold an explicit Engine
// and call SpanningForestInto to control reuse directly.
func SpanningForest(g *Graph) []int {
	en := getEngine(g.n)
	out := en.SpanningForestInto(nil, g)
	putEngine(g.n, en)
	if out == nil {
		out = []int{} // empty forest: non-nil, as the pre-engine API returned
	}
	return out
}

// SpanningForestInto appends the indices of edges forming a spanning
// forest of g to dst[:0] and returns the extended slice (append
// semantics: the result reuses dst's backing array when it fits). See
// SpanningForest.
func (en *Engine) SpanningForestInto(dst []int, g *Graph) []int {
	dst = dst[:0]
	en.parent = arena.Iota32(en.parent, g.n)
	en.size = arena.Filled(en.size, g.n, 1)
	parent, size := en.parent, en.size
	for i, e := range g.edges {
		ru, rv := ufFind(parent, e[0]), ufFind(parent, e[1])
		if ru == rv {
			continue
		}
		if size[ru] < size[rv] {
			ru, rv = rv, ru
		}
		parent[rv] = ru
		size[ru] += size[rv]
		dst = append(dst, i)
	}
	return dst
}
