package kernel

import (
	"fmt"
	"testing"

	"listrank/internal/rng"
)

// sublists is a synthetic set of independent sublists over a shared
// vertex space, in the exact shape the engine hands the kernels: a
// next array with a self-loop at every sublist tail, a values array,
// and the head of each sublist. Vertex ids are scattered randomly so
// chases jump around memory like the real workload's.
type sublists struct {
	next, values []int64
	h            []int64
}

// makeSublists builds sublists with the given lengths, vertex ids
// drawn from a shuffled [0, sum(lengths)).
func makeSublists(lengths []int, seed uint64) *sublists {
	n := 0
	for _, ln := range lengths {
		if ln < 1 {
			panic("sublist length must be >= 1")
		}
		n += ln
	}
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	r := rng.New(seed)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	s := &sublists{
		next:   make([]int64, n),
		values: make([]int64, n),
		h:      make([]int64, 0, len(lengths)),
	}
	pos := 0
	for _, ln := range lengths {
		s.h = append(s.h, perm[pos])
		for i := 0; i < ln; i++ {
			v := perm[pos+i]
			if i == ln-1 {
				s.next[v] = v // tail self-loop
			} else {
				s.next[v] = perm[pos+i+1]
			}
			s.values[v] = int64(r.Intn(100)) - 17
		}
		pos += ln
	}
	return s
}

// enc builds the rank engine's encoded representation: link<<32 |
// addend, addend 1 everywhere except the self-looped tails.
func (s *sublists) enc() []uint64 {
	e := make([]uint64, len(s.next))
	for v, nx := range s.next {
		if nx == int64(v) {
			e[v] = uint64(v) << 32
		} else {
			e[v] = uint64(nx)<<32 | 1
		}
	}
	return e
}

// Reference implementations: the plain safe serial walks.

func refSumAdd(s *sublists, lo, hi int) (sum, cur []int64) {
	sum = make([]int64, len(s.h))
	cur = make([]int64, len(s.h))
	for j := lo; j < hi; j++ {
		c := s.h[j]
		var acc int64
		for {
			acc += s.values[c]
			nx := s.next[c]
			if nx == c {
				break
			}
			c = nx
		}
		sum[j], cur[j] = acc, c
	}
	return sum, cur
}

func refExpandAdd(s *sublists, pfx []int64, lo, hi int) []int64 {
	out := make([]int64, len(s.next))
	for j := lo; j < hi; j++ {
		c := s.h[j]
		acc := pfx[j]
		for {
			out[c] = acc
			acc += s.values[c]
			nx := s.next[c]
			if nx == c {
				break
			}
			c = nx
		}
	}
	return out
}

// shapes is the set of odd sublist populations every kernel test
// sweeps: singletons only (refill every step), one long chain among
// singletons (one lane outlives all refills), uniform, random
// geometric-ish, and a single sublist (fewer sublists than lanes).
func shapes(r *rng.Rand) map[string][]int {
	random := make([]int, 40)
	for i := range random {
		random[i] = 1 + r.Intn(60)
	}
	long := make([]int, 21)
	for i := range long {
		long[i] = 1
	}
	long[10] = 500
	return map[string][]int{
		"singletons": {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		"one-long":   long,
		"uniform":    {7, 7, 7, 7, 7, 7, 7, 7},
		"random":     random,
		"single":     {97},
		"pair":       {1, 350},
	}
}

var laneWidths = []int{1, 2, 3, 4, 5, 8, 16, MaxLanes, MaxLanes + 50}

func TestChaseKernelsMatchOracle(t *testing.T) {
	r := rng.New(42)
	for name, lengths := range shapes(r) {
		s := makeSublists(lengths, uint64(len(name)))
		e := s.enc()
		k := len(s.h)
		pfx := make([]int64, k)
		for j := range pfx {
			pfx[j] = int64(j * 1000)
		}
		chunks := [][2]int{{0, k}, {0, 0}, {k / 3, 2 * k / 3}, {k - 1, k}}
		for _, ch := range chunks {
			lo, hi := ch[0], ch[1]
			wantSum, wantCur := refSumAdd(s, lo, hi)
			wantOut := refExpandAdd(s, pfx, lo, hi)
			for _, K := range laneWidths {
				t.Run(fmt.Sprintf("%s/chunk=%d-%d/K=%d", name, lo, hi, K), func(t *testing.T) {
					sum := make([]int64, k)
					cur := make([]int64, k)
					SumAdd(s.next, s.values, s.h, sum, cur, lo, hi, K)
					for j := lo; j < hi; j++ {
						if sum[j] != wantSum[j] || cur[j] != wantCur[j] {
							t.Fatalf("SumAdd vp %d: got (%d,%d), want (%d,%d)", j, sum[j], cur[j], wantSum[j], wantCur[j])
						}
					}

					out := make([]int64, len(s.next))
					ExpandAdd(out, s.next, s.values, s.h, pfx, lo, hi, K)
					for v := range out {
						if out[v] != wantOut[v] {
							t.Fatalf("ExpandAdd vertex %d: got %d, want %d", v, out[v], wantOut[v])
						}
					}

					// Encoded twins: sum must be the sublist length and
					// the expansion must add 1 per vertex.
					SumEnc(e, s.h, sum, cur, lo, hi, K)
					for j := lo; j < hi; j++ {
						// recompute length from the reference walk
						var length int64 = 1
						for c := s.h[j]; s.next[c] != c; c = s.next[c] {
							length++
						}
						if sum[j] != length {
							t.Fatalf("SumEnc vp %d: got %d, want length %d", j, sum[j], length)
						}
						if cur[j] != wantCur[j] {
							t.Fatalf("SumEnc vp %d: tail %d, want %d", j, cur[j], wantCur[j])
						}
					}
					ExpandEnc(out, e, s.h, pfx, lo, hi, K)
					for j := lo; j < hi; j++ {
						want := pfx[j]
						for c := s.h[j]; ; c = s.next[c] {
							if out[c] != want {
								t.Fatalf("ExpandEnc vp %d vertex %d: got %d, want %d", j, c, out[c], want)
							}
							want++
							if s.next[c] == c {
								break
							}
						}
					}

					// Operator twins under an order-sensitive probe op
					// (deliberately non-associative: any deviation from
					// the serial per-sublist fold order changes the
					// result, so this catches reordering the sharpest).
					op := func(a, b int64) int64 { return 3*a + b }
					SumOp(s.next, s.values, s.h, sum, cur, op, 0, lo, hi, K)
					for j := lo; j < hi; j++ {
						acc := int64(0)
						for c := s.h[j]; ; c = s.next[c] {
							acc = op(acc, s.values[c])
							if s.next[c] == c {
								break
							}
						}
						if sum[j] != acc || cur[j] != wantCur[j] {
							t.Fatalf("SumOp vp %d: got (%d,%d), want (%d,%d)", j, sum[j], cur[j], acc, wantCur[j])
						}
					}
					ExpandOp(out, s.next, s.values, s.h, pfx, op, lo, hi, K)
					for j := lo; j < hi; j++ {
						acc := pfx[j]
						for c := s.h[j]; ; c = s.next[c] {
							if out[c] != acc {
								t.Fatalf("ExpandOp vp %d vertex %d: got %d, want %d", j, c, out[c], acc)
							}
							acc = op(acc, s.values[c])
							if s.next[c] == c {
								break
							}
						}
					}
				})
			}
		}
	}
}

func TestJumpKernelsMatchOracle(t *testing.T) {
	r := rng.New(11)
	const k = 257
	val := make([]int64, k)
	lnk := make([]int32, k)
	for j := range val {
		val[j] = int64(r.Intn(1000)) - 333
		lnk[j] = int32(r.Intn(k))
	}
	val2 := make([]int64, k)
	lnk2 := make([]int32, k)
	JumpAdd(val2, lnk2, val, lnk, 0, k)
	for j := 0; j < k; j++ {
		s := lnk[j]
		if val2[j] != val[j]+val[s] || lnk2[j] != lnk[s] {
			t.Fatalf("JumpAdd element %d mismatch", j)
		}
	}
	op := func(a, b int64) int64 { return 2*a - b }
	JumpOp(val2, lnk2, val, lnk, op, 3, k-3)
	for j := 3; j < k-3; j++ {
		s := lnk[j]
		if val2[j] != op(val[s], val[j]) || lnk2[j] != lnk[s] {
			t.Fatalf("JumpOp element %d mismatch", j)
		}
	}
}

// TestKernelPanicsOnMalformedList: the explicit chk guard must fire —
// not an out-of-range read — when a link points outside the list.
func TestKernelPanicsOnMalformedList(t *testing.T) {
	s := makeSublists([]int{5, 5}, 1)
	s.next[s.h[0]] = int64(len(s.next)) + 100 // corrupt a link
	sum := make([]int64, 2)
	cur := make([]int64, 2)
	for _, K := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("K=%d: no panic on out-of-range link", K)
				}
			}()
			SumAdd(s.next, s.values, s.h, sum, cur, 0, 2, K)
		}()
	}
	// Chunk bounds beyond the vp table must panic too.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on out-of-range chunk")
			}
		}()
		SumAdd(s.next, s.values, s.h, sum, cur, 0, 3, 4)
	}()
}

// TestKernelsAllocationFree: lane state is a stack array; a kernel
// call must never touch the heap.
func TestKernelsAllocationFree(t *testing.T) {
	s := makeSublists([]int{9, 1, 30, 2, 2, 17, 1, 1, 40}, 5)
	e := s.enc()
	k := len(s.h)
	sum := make([]int64, k)
	cur := make([]int64, k)
	out := make([]int64, len(s.next))
	pfx := make([]int64, k)
	active := make([]int32, k)
	for j := range active {
		active[j] = int32(j)
	}
	op := func(a, b int64) int64 { return a + b }
	cases := map[string]func(){
		"SumAdd":    func() { SumAdd(s.next, s.values, s.h, sum, cur, 0, k, 16) },
		"SumEnc":    func() { SumEnc(e, s.h, sum, cur, 0, k, 16) },
		"SumOp":     func() { SumOp(s.next, s.values, s.h, sum, cur, op, 0, 0, k, 16) },
		"ExpandAdd": func() { ExpandAdd(out, s.next, s.values, s.h, pfx, 0, k, 16) },
		"ExpandEnc": func() { ExpandEnc(out, e, s.h, pfx, 0, k, 16) },
		"ExpandOp":  func() { ExpandOp(out, s.next, s.values, s.h, pfx, op, 0, k, 16) },
	}
	lnk := make([]int32, k)
	lnk2 := make([]int32, k)
	copy(lnk, active)
	cases["JumpAdd"] = func() { JumpAdd(out[:k], lnk2, sum, lnk, 0, k) }
	for name, fn := range cases {
		if got := testing.AllocsPerRun(20, fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
}

func TestWidthResolution(t *testing.T) {
	if w := Width(0, 1<<10); w != 8 {
		t.Errorf("Width(0, small) = %d, want 8", w)
	}
	if w := Width(0, 1<<20); w != 16 {
		t.Errorf("Width(0, mid) = %d, want 16", w)
	}
	if w := Width(0, 1<<24); w != MaxLanes {
		t.Errorf("Width(0, large) = %d, want %d", w, MaxLanes)
	}
	if w := Width(-3, 1<<20); w != 1 {
		t.Errorf("Width(-3) = %d, want 1", w)
	}
	if w := Width(1000, 1<<20); w != MaxLanes {
		t.Errorf("Width(1000) = %d, want %d", w, MaxLanes)
	}
}
