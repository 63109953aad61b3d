// Package serial implements the sequential list-ranking and list-scan
// algorithms (paper §2.1). The serial algorithm simply walks down the
// list accumulating values; it is the work baseline every parallel
// algorithm is compared against (Table II: O(n) time, O(n) work, small
// constants, constant extra space), and the sublist engine's path for
// lists at or below its serial cutoff.
//
// Every walk returns only when it reaches the self-loop tail at link
// n−1, as a walk of a well-formed list does. One that reaches it sooner
// has left vertices unwritten, and one that has not reached it by then
// is going round a cycle; both panic with list.ErrNotList rather than
// return a wrong answer or spin, as does a head or link outside [0, n).
package serial

import "listrank/internal/list"

// Ranks returns, for each vertex of l, the number of vertices that
// precede it in the list.
func Ranks(l *list.List) []int64 {
	out := make([]int64, l.Len())
	RanksInto(out, l)
	return out
}

// RanksInto writes the ranks of l into dst, which must have length
// l.Len(). It allows callers to reuse result storage across runs.
func RanksInto(dst []int64, l *list.List) {
	v := l.Head
	next := l.Next
	for rank := int64(0); rank < int64(len(next)); rank++ {
		if uint64(v) >= uint64(len(next)) {
			panic(list.ErrNotList)
		}
		dst[v] = rank
		n := next[v]
		if n == v {
			if rank < int64(len(next))-1 {
				panic(list.ErrNotList)
			}
			return
		}
		v = n
	}
	panic(list.ErrNotList)
}

// Scan returns the exclusive list scan of l under integer addition:
// out[v] is the sum of the values of all vertices strictly preceding v.
func Scan(l *list.List) []int64 {
	out := make([]int64, l.Len())
	ScanInto(out, l)
	return out
}

// ScanInto writes the exclusive scan of l into dst, which must have
// length l.Len().
func ScanInto(dst []int64, l *list.List) {
	v := l.Head
	next, value := l.Next, l.Value
	var sum int64
	for i := 0; i < len(next); i++ {
		if uint64(v) >= uint64(len(next)) {
			panic(list.ErrNotList)
		}
		dst[v] = sum
		sum += value[v]
		n := next[v]
		if n == v {
			if i < len(next)-1 {
				panic(list.ErrNotList)
			}
			return
		}
		v = n
	}
	panic(list.ErrNotList)
}

// ScanOp returns the exclusive list scan of l under an arbitrary
// associative operator op with the given identity. The head receives
// identity, and every other vertex receives
// op(value[v1], op(value[v2], …)) over the strictly preceding vertices
// v1, v2, … in list order (combined left to right, so op need not be
// commutative).
func ScanOp(l *list.List, op func(a, b int64) int64, identity int64) []int64 {
	out := make([]int64, l.Len())
	ScanOpInto(out, l, op, identity)
	return out
}

// ScanOpInto is ScanOp writing into caller-provided storage.
func ScanOpInto(dst []int64, l *list.List, op func(a, b int64) int64, identity int64) {
	v := l.Head
	next, value := l.Next, l.Value
	acc := identity
	for i := 0; i < len(next); i++ {
		if uint64(v) >= uint64(len(next)) {
			panic(list.ErrNotList)
		}
		dst[v] = acc
		acc = op(acc, value[v])
		n := next[v]
		if n == v {
			if i < len(next)-1 {
				panic(list.ErrNotList)
			}
			return
		}
		v = n
	}
	panic(list.ErrNotList)
}
