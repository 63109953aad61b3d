package tree

import (
	"fmt"

	"listrank"
)

// RootAt orients an unrooted tree, given as an undirected edge list,
// into a parent array rooted at root: the classic Euler-tour
// application of list ranking [Tarjan-Vishkin; the technique behind
// the paper's refs 1, 11, 12, 29]. Every undirected edge {u, v}
// becomes the twin arcs (u, v) and (v, u); linking each arc to the
// arc that follows its twin in the head's adjacency ring yields one
// Euler circuit over all 2(n-1) arcs, which is cut at the root and
// ranked. An edge's two arcs then compare ranks: the earlier-ranked
// arc points away from the root, so its head's parent is its tail.
//
// The whole computation is pointer assignments plus one list rank —
// no DFS, no recursion, nothing proportional to the tree's height —
// so its parallelism is the library's.
//
// RootAt returns an error if the edges do not form a single tree over
// the n vertices (wrong edge count, self-loops, duplicate edges,
// disconnected or cyclic input); the last three are found by the
// circuit's rank, not by a walk before it.
//
// The arc arrays, adjacency rings and Euler circuit live in a pooled
// Engine's arena; only the returned parent array is allocated. Hold an
// explicit Engine and call RootAtInto to control reuse directly.
func RootAt(n int, edges [][2]int, root int, opt listrank.Options) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tree: RootAt requires n > 0")
	}
	parent := make([]int, n)
	en := getEngine(n)
	err := en.RootAtInto(parent, n, edges, root, opt)
	putEngine(n, en)
	if err != nil {
		return nil, err
	}
	return parent, nil
}
