package listrank

import (
	"fmt"

	"listrank/internal/core"
	"listrank/internal/par"
	"listrank/internal/rng"
)

// ScanValues computes the exclusive list scan of vals along l under an
// arbitrary associative operator: out[v] is the op-fold, in list
// order, of the values of all vertices strictly preceding v, and
// identity at the head. The operator need not be commutative —
// composition of functions, matrix products and string concatenation
// are all fine — which is exactly the paper's definition of list scan
// ("'sum' of the values of all prior vertices in the list, where
// 'sum' is a binary associative operator", §2) freed from the int64
// specialization of Scan.
//
// vals is indexed by vertex (parallel to l.Next) and must have length
// l.Len(); the list's own Value array is ignored. The implementation
// is the paper's three-phase sublist algorithm: random splitters cut
// the list into m+1 independent sublists, Phase 1 folds each sublist
// in parallel, Phase 2 scans the short reduced list serially, and
// Phase 3 expands the prefixes back across the sublists in parallel.
// Each worker completes whole sublists (the §5 local-completion
// schedule), so op is never called concurrently on overlapping
// prefixes and may be an arbitrary pure function.
//
// Options.Algorithm Serial forces the one-pass serial walk; all other
// algorithm selections use the sublist algorithm (the reference
// algorithms are int64-specific). The list is never mutated. A
// malformed list — one whose walk from the head does not reach a
// self-loop within n links — panics rather than spin, on either path.
func ScanValues[T any](l *List, vals []T, op func(T, T) T, identity T, opt Options) []T {
	n := l.Len()
	if len(vals) != n {
		panic(fmt.Sprintf("listrank: ScanValues: len(vals) = %d, want list length %d", len(vals), n))
	}
	out := make([]T, n)
	if n == 0 {
		return out
	}
	p := opt.procs()
	if opt.Algorithm == Serial || p == 1 || n < 2048 {
		scanValuesSerial(l, vals, op, identity, out)
		return out
	}

	// Number of sublists: the engine's default (core.DefaultM), floored
	// so every worker owns several sublists (the paper's load-balance
	// argument: exponential sublist lengths average out across a
	// worker's many sublists, §2.5).
	m := opt.M
	if m <= 0 {
		m = core.DefaultM(n)
	}
	if m < 8*p {
		m = 8 * p
	}
	if m > n/2 {
		m = n / 2
	}

	// Initialization: sample m distinct cut positions. A cut at
	// vertex r ends one sublist at r and starts the next at Next[r];
	// a cut at the tail is a no-op (its successor is itself) and is
	// dropped, mirroring the paper's duplicate-splitter competition.
	r := rng.New(opt.Seed)
	positions := make([]int, m)
	r.Sample(positions, 0, n)
	cutEnds := make([]int32, n) // sublist id ending at this vertex, -1 if none
	for i := range cutEnds {
		cutEnds[i] = -1
	}
	headVert := make([]int64, 1, m+1) // headVert[j] = first vertex of sublist j
	headVert[0] = l.Head
	for _, pos := range positions {
		if l.Next[pos] == int64(pos) {
			continue // the global tail: cutting after it is meaningless
		}
		headVert = append(headVert, l.Next[pos])
		cutEnds[pos] = 0 // provisional; rewritten below with real ids
	}
	nsub := len(headVert)
	sublistOfHead := make([]int32, n) // valid only at head vertices
	j := int32(1)
	for pos := range cutEnds {
		if cutEnds[pos] == 0 {
			cutEnds[pos] = j
			j++
		}
	}
	// cutEnds[pos] = id of the sublist that ends at pos; ids were
	// assigned in vertex order, so recompute heads consistently.
	headVert = headVert[:1]
	for pos, id := range cutEnds {
		if id > 0 {
			for int32(len(headVert)) <= id {
				headVert = append(headVert, 0)
			}
			headVert[id] = l.Next[pos]
		}
	}
	for id, h := range headVert {
		sublistOfHead[h] = int32(id)
	}

	// Phase 1: fold every sublist; record where it ended. Fan-outs
	// dispatch on the shared resident worker pool; ScanValues allocates
	// its result and working set per call anyway, so the closure cost
	// is immaterial, but the workers are not re-spawned.
	sums := make([]T, nsub)
	endAt := make([]int64, nsub)
	// The sublists of a well-formed list share no vertex, so a worker
	// follows fewer than n links in all; one that has not finished by
	// then is going round a cycle that holds no cut.
	par.Shared().ForChunks(nsub, par.Procs(p, nsub), func(_, lo, hi int) {
		budget := n
		for id := lo; id < hi; id++ {
			v := headVert[id]
			acc := identity
			for {
				acc = op(acc, vals[v])
				if cutEnds[v] >= 0 || l.Next[v] == v {
					break
				}
				if budget--; budget == 0 {
					panic(errScanValuesNoEnd)
				}
				v = l.Next[v]
			}
			sums[id] = acc
			endAt[id] = v
		}
	})

	// Phase 2: serial exclusive scan of the reduced list in list
	// order. The successor of the sublist ending at r is the one
	// whose head is Next[r]; the tail sublist ends at the global tail
	// and is its own successor. The walk must reach the tail sublist
	// at its last step and not before: only then did it visit every
	// sublist once, along one path from the head. Otherwise the list
	// is malformed (a cut inside a cycle lets Phase 1 finish), and
	// Phase 3 would expand garbage.
	prefix := make([]T, nsub)
	acc := identity
	cur := sublistOfHead[l.Head]
	for k := 0; k < nsub; k++ {
		prefix[cur] = acc
		acc = op(acc, sums[cur])
		end := endAt[cur]
		if (l.Next[end] == end) != (k == nsub-1) {
			panic(errScanValuesNoEnd)
		}
		cur = sublistOfHead[l.Next[end]]
	}

	// Phase 3: expand each sublist's prefix across its vertices.
	par.Shared().ForChunks(nsub, par.Procs(p, nsub), func(_, lo, hi int) {
		for id := lo; id < hi; id++ {
			v := headVert[id]
			acc := prefix[id]
			for {
				out[v] = acc
				if cutEnds[v] >= 0 || l.Next[v] == v {
					break
				}
				acc = op(acc, vals[v])
				v = l.Next[v]
			}
		}
	})
	return out
}

// errScanValuesNoEnd is the panic value of a ScanValues call on a list
// whose walk from the head does not reach a self-loop tail.
const errScanValuesNoEnd = "listrank: ScanValues: no tail self-loop within n links (malformed list)"

// scanValuesSerial is the one-pass walk. It follows at most n links: a
// well-formed list reaches its tail by then, and a walk that has not
// is going round a cycle.
func scanValuesSerial[T any](l *List, vals []T, op func(T, T) T, identity T, out []T) {
	acc := identity
	v := l.Head
	for i := 0; i < len(l.Next); i++ {
		out[v] = acc
		next := l.Next[v]
		if next == v {
			return
		}
		acc = op(acc, vals[v])
		v = next
	}
	panic(errScanValuesNoEnd)
}
