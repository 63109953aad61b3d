// Package list provides the linked-list representation shared by every
// list-ranking and list-scan algorithm in this repository, plus
// generators for the workloads used in the paper's experiments and
// validators used by the test suite.
//
// Following Reid-Miller (§3), a linked list of n vertices is stored as
// a pair of parallel arrays: Next[i] is the index of the successor of
// vertex i, and Value[i] is the vertex's value for list scan. The tail
// of the list is marked with a self-loop: Next[tail] == tail. List
// ranking is the special case Value[i] == 1 for all i with an integer
// "+" operator, in which case the result at a vertex is the number of
// vertices that precede it.
//
// The paper's convention (and ours) is that the scan is *exclusive*:
// the result at the head is the operator identity (0 for +), and the
// result at any other vertex is the "sum" of the values of all strictly
// preceding vertices.
package list

import (
	"errors"
	"fmt"

	"listrank/internal/rng"
)

// List is a linked list in array-of-links form. Head is the index of
// the first vertex. The tail vertex t satisfies Next[t] == t.
type List struct {
	Next  []int64
	Value []int64
	Head  int64
}

// Len returns the number of vertices in the list's backing arrays.
func (l *List) Len() int { return len(l.Next) }

// Clone returns a deep copy of l. Algorithms that destroy the link
// structure (random mate, pointer jumping) operate on clones in tests.
func (l *List) Clone() *List {
	c := &List{
		Next:  make([]int64, len(l.Next)),
		Value: make([]int64, len(l.Value)),
		Head:  l.Head,
	}
	copy(c.Next, l.Next)
	copy(c.Value, l.Value)
	return c
}

// Tail walks the list and returns the index of the tail vertex.
// It is O(n) and intended for construction and validation, not for use
// inside ranking algorithms.
func (l *List) Tail() int64 {
	v := l.Head
	for l.Next[v] != v {
		v = l.Next[v]
	}
	return v
}

// ErrNotList is returned by Validate when the Next array does not
// describe a single linked list over all vertices. It is also the one
// panic value of every rank and scan that refuses such a list: the
// serial walks, the kernels' range guard, the sublist engine, the
// segmented engine and ScanValues.
var ErrNotList = errors.New("list: structure is not a single linked list")

// Validate checks that l is a single list containing every vertex
// exactly once, terminated by a self-loop. It returns nil if so.
func (l *List) Validate() error {
	n := len(l.Next)
	if n == 0 {
		return fmt.Errorf("%w: empty list", ErrNotList)
	}
	if l.Head < 0 || int(l.Head) >= n {
		return fmt.Errorf("%w: head %d out of range [0,%d)", ErrNotList, l.Head, n)
	}
	seen := make([]bool, n)
	v := l.Head
	for count := 0; ; count++ {
		if count >= n {
			return fmt.Errorf("%w: walk exceeded %d vertices without reaching tail", ErrNotList, n)
		}
		if seen[v] {
			return fmt.Errorf("%w: vertex %d visited twice", ErrNotList, v)
		}
		seen[v] = true
		next := l.Next[v]
		if next < 0 || int(next) >= n {
			return fmt.Errorf("%w: link %d -> %d out of range", ErrNotList, v, next)
		}
		if next == v {
			break // tail
		}
		v = next
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("%w: vertex %d unreachable from head", ErrNotList, i)
		}
	}
	return nil
}

// Order returns the vertices of l in list order, head first.
func (l *List) Order() []int64 {
	out := make([]int64, 0, len(l.Next))
	v := l.Head
	for {
		out = append(out, v)
		if l.Next[v] == v {
			break
		}
		v = l.Next[v]
	}
	return out
}

// NewOrdered returns a list of n vertices laid out in memory order:
// vertex i links to i+1 and the head is vertex 0. Every Value is 1.
// This is the best case for cache behaviour and the degenerate case for
// random-splitter algorithms, used in failure-injection tests.
func NewOrdered(n int) *List {
	if n <= 0 {
		panic("list: NewOrdered requires n > 0")
	}
	l := &List{
		Next:  make([]int64, n),
		Value: make([]int64, n),
		Head:  0,
	}
	for i := 0; i < n; i++ {
		l.Next[i] = int64(i + 1)
		l.Value[i] = 1
	}
	l.Next[n-1] = int64(n - 1)
	return l
}

// NewReversed returns a list of n vertices where vertex i links to
// i-1; the head is vertex n-1 and the tail vertex 0. Every Value is 1.
// Traversal strides backwards through memory.
func NewReversed(n int) *List {
	if n <= 0 {
		panic("list: NewReversed requires n > 0")
	}
	l := &List{
		Next:  make([]int64, n),
		Value: make([]int64, n),
		Head:  int64(n - 1),
	}
	for i := 0; i < n; i++ {
		l.Next[i] = int64(i - 1)
		l.Value[i] = 1
	}
	l.Next[0] = 0
	return l
}

// NewRandom returns a list of n vertices whose list order is a uniform
// random permutation of the vertex indices, the workload used
// throughout the paper's evaluation (random placement also avoids
// systematic memory-bank conflicts, §3). Every Value is 1, so ranking
// and scanning the list yield the same result.
func NewRandom(n int, r *rng.Rand) *List {
	if n <= 0 {
		panic("list: NewRandom requires n > 0")
	}
	perm := r.Perm(n)
	l := &List{
		Next:  make([]int64, n),
		Value: make([]int64, n),
		Head:  int64(perm[0]),
	}
	for i := 0; i < n-1; i++ {
		l.Next[perm[i]] = int64(perm[i+1])
	}
	tail := perm[n-1]
	l.Next[tail] = int64(tail)
	for i := range l.Value {
		l.Value[i] = 1
	}
	return l
}

// NewBlocked returns a list whose order consists of blockLen runs of
// consecutive indices, with the runs themselves randomly permuted. It
// models partially-sorted pointer structures (e.g. lists built by
// appending chunks) and sits between NewOrdered and NewRandom in
// memory-locality terms.
func NewBlocked(n, blockLen int, r *rng.Rand) *List {
	if n <= 0 || blockLen <= 0 {
		panic("list: NewBlocked requires n > 0 and blockLen > 0")
	}
	blocks := (n + blockLen - 1) / blockLen
	order := make([]int, 0, n)
	for _, b := range r.Perm(blocks) {
		lo := b * blockLen
		hi := lo + blockLen
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			order = append(order, i)
		}
	}
	return FromOrder(order)
}

// FromOrder builds a list whose traversal visits order[0], order[1], …
// in sequence. order must be a permutation of [0, len(order)).
// Every Value is 1.
func FromOrder(order []int) *List {
	n := len(order)
	if n == 0 {
		panic("list: FromOrder requires a non-empty order")
	}
	l := &List{
		Next:  make([]int64, n),
		Value: make([]int64, n),
		Head:  int64(order[0]),
	}
	for i := 0; i < n-1; i++ {
		l.Next[order[i]] = int64(order[i+1])
	}
	l.Next[order[n-1]] = int64(order[n-1])
	for i := range l.Value {
		l.Value[i] = 1
	}
	return l
}

// RandomValues overwrites l.Value with uniform values in [lo, hi),
// for list-scan workloads where values are not all ones.
func (l *List) RandomValues(lo, hi int64, r *rng.Rand) {
	span := uint64(hi - lo)
	if span == 0 {
		panic("list: RandomValues requires hi > lo")
	}
	for i := range l.Value {
		l.Value[i] = lo + int64(r.Uint64n(span))
	}
}

// Ranks returns, for each vertex, the number of vertices preceding it
// in the list, computed by a direct walk. It is the reference answer
// for list ranking in tests.
func (l *List) Ranks() []int64 {
	out := make([]int64, len(l.Next))
	v := l.Head
	var rank int64
	for {
		out[v] = rank
		rank++
		if l.Next[v] == v {
			break
		}
		v = l.Next[v]
	}
	return out
}

// ExclusiveScan returns the reference exclusive scan of l under integer
// addition: out[v] is the sum of the values of all vertices strictly
// preceding v.
func (l *List) ExclusiveScan() []int64 {
	out := make([]int64, len(l.Next))
	v := l.Head
	var sum int64
	for {
		out[v] = sum
		sum += l.Value[v]
		if l.Next[v] == v {
			break
		}
		v = l.Next[v]
	}
	return out
}
