package tree

import (
	"fmt"
	"math/bits"

	"listrank/internal/par"
)

// LCAIndex answers lowest-common-ancestor queries in O(1) after an
// O(n log n)-space preprocessing pass built on one list rank and one
// list scan of the Euler tour — the reduction of Schieber's parallel
// LCA computation (the paper's ref [32]) to the library's primitives.
//
// The tour ranks linearize the 2n tour elements into an array; each
// position records the vertex the walk stands on after that element
// and its depth. Consecutive positions differ by one tree edge, the
// first occurrence of v is position rank(down(v)), and on any
// subarray between first occurrences of u and v the walk dips exactly
// to their LCA — so LCA is a range-minimum query over depths, served
// by a sparse table.
type LCAIndex struct {
	t     *Tree
	first []int32 // first[v] = position of down(v) in the tour array
	// sparse[k][i] = position of the min-depth vertex in [i, i+2^k)
	sparse [][]int32
	depth  []int64 // depth at each tour position
	at     []int32 // vertex at each tour position
}

// LCA builds the constant-time query index. The construction ranks
// the tour (cached on the tree) and reads the depths New took from its
// scan of the tour; the sparse-table levels are built with the tree's
// configured parallelism. It borrows a pooled Engine's worker pool;
// hold an explicit Engine and call its LCA method to choose the pool.
func (t *Tree) LCA() *LCAIndex {
	en := getEngine(t.n)
	x := en.LCA(t)
	putEngine(t.n, en)
	return x
}

// buildSparse fills in the sparse table over tour positions, one
// doubling level at a time, from the already-populated depth array.
func (x *LCAIndex) buildSparse(m, procs int) {
	levels := bits.Len(uint(m))
	x.sparse = make([][]int32, levels)
	base := make([]int32, m)
	for i := range base {
		base[i] = int32(i)
	}
	x.sparse[0] = base
	for k := 1; k < levels; k++ {
		half := 1 << (k - 1)
		width := m - (1 << k) + 1
		if width <= 0 {
			x.sparse = x.sparse[:k]
			break
		}
		prev := x.sparse[k-1]
		cur := make([]int32, width)
		par.Shared().ForChunks(width, procs, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b := prev[i], prev[i+half]
				if x.depth[b] < x.depth[a] {
					a = b
				}
				cur[i] = a
			}
		})
		x.sparse[k] = cur
	}
}

// Query returns the lowest common ancestor of u and v. It panics if
// either vertex is out of range.
func (x *LCAIndex) Query(u, v int) int {
	if u < 0 || u >= x.t.n || v < 0 || v >= x.t.n {
		panic(fmt.Sprintf("tree: LCA query (%d, %d) out of range [0,%d)", u, v, x.t.n))
	}
	if u == v {
		return u
	}
	lo, hi := x.first[u], x.first[v]
	if lo > hi {
		lo, hi = hi, lo
	}
	k := bits.Len(uint(hi-lo+1)) - 1
	a := x.sparse[k][lo]
	b := x.sparse[k][int(hi)-(1<<k)+1]
	if x.depth[b] < x.depth[a] {
		a = b
	}
	return int(x.at[a])
}

// Dist returns the number of edges on the path between u and v,
// computed from depths and one LCA query.
func (x *LCAIndex) Dist(u, v int) int64 {
	w := x.Query(u, v)
	du := x.depth[x.first[u]]
	dv := x.depth[x.first[v]]
	dw := x.depth[x.first[w]]
	return du + dv - 2*dw
}
