// Package tree computes rooted-tree statistics — depths, subtree
// sizes, preorder and postorder numbers — through Euler tours and
// parallel list ranking, answering the paper's closing question
// ("whether having a fast list-ranking implementation helps in making
// other pointer-based applications practical", §7). List ranking is
// the standard primitive for parallel tree algorithms [Tarjan-Vishkin;
// paper refs 1, 12, 25, 31]; everything here reduces to one rank of
// the tour list plus elementwise arithmetic, so the work is O(n)
// regardless of tree shape and the parallelism is the library's.
//
// The Euler tour of a rooted tree visits every edge twice. We
// materialize it as a linked list of 2n elements — a "down" element
// entering every vertex and an "up" element leaving it — built
// directly from the child lists with pointer assignments (no DFS, no
// recursion, nothing proportional to the tree's height):
//
//	next(down(v)) = down(firstChild(v))   or up(v) if v is a leaf
//	next(up(c))   = down(nextSibling(c))  or up(parent(c)) for the last child
//
// With +1 on down elements and −1 on up elements, the exclusive prefix
// sums of the tour give depths; the ranks of the tour elements give
// preorder and postorder numbers and subtree sizes by short identities
// (see each method).
package tree

import (
	"fmt"

	"listrank"
	"listrank/internal/arena"
)

// Tree is a rooted tree prepared for Euler-tour computations.
type Tree struct {
	n      int
	root   int
	parent []int32
	// tour is the Euler tour linked list: element v is down(v) for
	// v < n and up(v-n) for v >= n. Values are +1 / −1.
	tour *listrank.List
	// cached tour ranks (computed on first need).
	ranks []int64
	opt   listrank.Options
}

// New builds a Tree from a parent array: parent[v] is v's parent and
// parent[root] == -1. Children are ordered by vertex number. It
// returns an error if the array does not describe a single rooted
// tree. The options select the list-ranking algorithm and parallelism
// used by every subsequent computation.
func New(parent []int, opt listrank.Options) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return nil, fmt.Errorf("tree: empty parent array")
	}
	root := -1
	p32 := make([]int32, n)
	for v, p := range parent {
		switch {
		case p == -1:
			if root != -1 {
				return nil, fmt.Errorf("tree: two roots, %d and %d", root, v)
			}
			root = v
			p32[v] = -1
		case p < 0 || p >= n:
			return nil, fmt.Errorf("tree: parent[%d] = %d out of range", v, p)
		case p == v:
			return nil, fmt.Errorf("tree: vertex %d is its own parent", v)
		default:
			p32[v] = int32(p)
		}
	}
	if root == -1 {
		return nil, fmt.Errorf("tree: no root (no parent[v] == -1)")
	}

	// Child lists via counting sort on parent: childStart[p] indexes
	// into childOf, children in vertex order.
	childCount := make([]int32, n)
	for v, p := range p32 {
		if p >= 0 {
			childCount[p]++
			_ = v
		}
	}
	childStart := make([]int32, n+1)
	for v := 0; v < n; v++ {
		childStart[v+1] = childStart[v] + childCount[v]
	}
	childOf := make([]int32, n-1+1) // n-1 edges (avoid zero-len alloc churn)
	fill := make([]int32, n)
	copy(fill, childStart[:n])
	for v := 0; v < n; v++ {
		if p := p32[v]; p >= 0 {
			childOf[fill[p]] = int32(v)
			fill[p]++
		}
	}

	// Assemble the tour links directly.
	next := make([]int64, 2*n)
	value := make([]int64, 2*n)
	down := func(v int32) int64 { return int64(v) }
	up := func(v int32) int64 { return int64(n) + int64(v) }
	for v := int32(0); v < int32(n); v++ {
		value[down(v)] = 1
		value[up(v)] = -1
		kids := childOf[childStart[v]:childStart[v+1]]
		if len(kids) == 0 {
			next[down(v)] = up(v)
		} else {
			next[down(v)] = down(kids[0])
			for i := 0; i+1 < len(kids); i++ {
				next[up(kids[i])] = down(kids[i+1])
			}
			next[up(kids[len(kids)-1])] = up(v)
		}
	}
	next[up(int32(root))] = up(int32(root)) // tour tail self-loop

	t := &Tree{
		n:      n,
		root:   root,
		parent: p32,
		tour:   &listrank.List{Next: next, Value: value, Head: down(int32(root))},
		opt:    opt,
	}
	// A malformed forest (cycle among non-root components) shows up as
	// an invalid tour; validate once here so later calls cannot hang.
	if err := t.tour.Validate(); err != nil {
		return nil, fmt.Errorf("tree: parent array is not a single tree: %w", err)
	}
	return t, nil
}

// Len returns the number of vertices.
func (t *Tree) Len() int { return t.n }

// Tour returns the tree's Euler tour as a linked list of 2n elements:
// element v (v < n) enters vertex v with value +1, element n+v leaves
// it with value −1, and the head is the root's entering element. The
// returned list shares the tree's storage; callers must treat it as
// read-only (every algorithm in package listrank only reads it, so
// concurrent calls may share it). Exposed so the tour can be
// run on the evaluation substrates — e.g. handing it to
// listrank.SimulateC90 prices the whole tree-statistics computation
// in 1994 machine cycles.
func (t *Tree) Tour() *listrank.List { return t.tour }

// Root returns the root vertex.
func (t *Tree) Root() int { return t.root }

// tourRanks ranks the 2n-element tour once and caches the result; all
// statistics derive from it. The ranking borrows working space from
// the pooled listrank engines, so only the cached result allocates.
func (t *Tree) tourRanks() []int64 {
	if t.ranks == nil {
		// Fill a local slice and publish it last, so a racy concurrent
		// lazy init at worst duplicates work but never observes a
		// half-filled cache.
		ranks := make([]int64, 2*t.n)
		listrank.RankInto(ranks, t.tour, t.opt)
		t.ranks = ranks
	}
	return t.ranks
}

// Depths returns the depth of every vertex (root = 0), via the
// exclusive prefix sums of the ±1 tour values: the sum before down(v)
// counts one +1 for each ancestor entered and not yet left. The
// 2n-element scan runs in a pooled engine's arena; only the returned
// n-element result is allocated.
func (t *Tree) Depths() []int64 {
	out := make([]int64, t.n)
	en := getEngine(t.n)
	en.pfx = arena.Grow(en.pfx, 2*t.n)
	en.lrEngine().ScanInto(en.pfx, t.tour, t.opt)
	copy(out, en.pfx[:t.n]) // prefix at down(v)
	putEngine(t.n, en)
	return out
}

// Preorder returns each vertex's 0-based preorder (DFS discovery)
// number. Identity: rank(down(v)) = 2·pre(v) − depth(v), since the
// tour elements before down(v) are one down per previously discovered
// vertex and one up per those already closed (all but the depth(v)
// open ancestors).
func (t *Tree) Preorder() []int64 {
	ranks := t.tourRanks()
	depths := t.Depths()
	out := make([]int64, t.n)
	for v := 0; v < t.n; v++ {
		out[v] = (ranks[v] + depths[v]) / 2
	}
	return out
}

// Postorder returns each vertex's 0-based postorder (DFS finish)
// number. Identity: among the rank(up(v)) elements before up(v) there
// is one down for every vertex discovered before v finishes — that is
// post(v) + depth(v) + 1 of them... more directly, ups before up(v)
// are exactly the vertices finished before v: rank(up(v)) =
// (post(v) + depth(v) + 1) + post(v), so
// post(v) = (rank(up(v)) − depth(v) − 1) / 2.
func (t *Tree) Postorder() []int64 {
	ranks := t.tourRanks()
	depths := t.Depths()
	out := make([]int64, t.n)
	for v := 0; v < t.n; v++ {
		out[v] = (ranks[t.n+v] - depths[v] - 1) / 2
	}
	return out
}

// SubtreeSizes returns the number of vertices in each vertex's
// subtree (including itself). Identity: the tour between down(v) and
// up(v) inclusive is exactly v's subtree traversal of 2·size(v)
// elements, so size(v) = (rank(up(v)) − rank(down(v)) + 1) / 2.
func (t *Tree) SubtreeSizes() []int64 {
	ranks := t.tourRanks()
	out := make([]int64, t.n)
	for v := 0; v < t.n; v++ {
		out[v] = (ranks[t.n+v] - ranks[v] + 1) / 2
	}
	return out
}

// IsAncestor reports whether a is an ancestor of (or equal to) d,
// using the preorder/subtree-size interval test. The first call
// computes the underlying orders; subsequent calls are O(1).
func (t *Tree) IsAncestor(a, d int) bool {
	ranks := t.tourRanks()
	// a is an ancestor of d iff down(a) ≤ down(d) < up(a) in tour order.
	return ranks[a] <= ranks[d] && ranks[d] < ranks[t.n+a]
}
