package listrank

import "listrank/internal/kernel"

// Reorder converts a linked list into its array form in one ranking
// pass — the paper's §2 observation that a rank is exactly the
// permutation needed "to reorder the vertices of a linked list into
// an array in one parallel step". It returns a new sequential list
// (vertex r links to r+1, head 0) whose position r carries the value
// of the original list's r-th vertex, and the permutation that got it
// there: perm[r] is the original vertex id at position r, so
//
//	reordered.Value[r] == l.Value[perm[r]]
//
// and a result computed on the reordered list maps back to original
// vertex ids as out[perm[r]] = reorderedOut[r]. The inverse mapping —
// original vertex v sits at position rank[v] — is recovered with
// kernel-free code as a second inversion, or simply by ranking l.
// Traversals of the reordered list run at streaming speed instead of
// pointer-chasing speed; the Server's reorder cache
// (Server.Register, ServerOptions.ReorderAfter) applies the same
// transformation automatically to repeat traffic. l must have a value
// per vertex and is only read.
func Reorder(l *List) (*List, []int64) {
	n := l.Len()
	if n == 0 {
		return &List{}, []int64{}
	}
	rank := Rank(l)
	perm := make([]int64, n)
	kernel.SeqRank(perm, rank) // a rank is a permutation; invert it
	r := NewOrderedList(n)
	for i, p := range perm {
		r.Value[i] = l.Value[p]
	}
	return r, perm
}
