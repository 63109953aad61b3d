package kernel

import (
	"math/rand"
	"testing"
)

// randPerm returns a random permutation of [0, n) as int64s.
func randPerm(n int, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	p := make([]int64, n)
	for i, v := range r.Perm(n) {
		p[i] = int64(v)
	}
	return p
}

func TestSeqRank(t *testing.T) {
	for _, n := range []int{0, 1, 2, 33, 1024} {
		perm := randPerm(n, int64(n)+1)
		out := make([]int64, n)
		SeqRank(out, perm)
		for r, p := range perm {
			if out[p] != int64(r) {
				t.Fatalf("n=%d: out[perm[%d]=%d] = %d, want %d", n, r, p, out[p], r)
			}
		}
		// SeqRank inverts a permutation, so applying it twice is the
		// identity.
		back := make([]int64, n)
		SeqRank(back, out)
		for i := range back {
			if back[i] != perm[i] {
				t.Fatalf("n=%d: double inversion broke at %d", n, i)
			}
		}
	}
}

func TestSeqScanAdd(t *testing.T) {
	for _, n := range []int{0, 1, 2, 33, 1024} {
		perm := randPerm(n, int64(n)+5)
		seq := make([]int64, n)
		for i := range seq {
			seq[i] = int64(i%13) - 6
		}
		out := make([]int64, n)
		SeqScanAdd(out, seq, perm)
		var acc int64
		for r, p := range perm {
			if out[p] != acc {
				t.Fatalf("n=%d: out[perm[%d]] = %d, want %d", n, r, out[p], acc)
			}
			acc += seq[r]
		}
	}
}

func TestSeqScanOp(t *testing.T) {
	// A non-commutative operator catches any fold-order deviation.
	op := func(a, b int64) int64 { return 3*a - b }
	for _, n := range []int{0, 1, 2, 33, 1024} {
		perm := randPerm(n, int64(n)+9)
		seq := make([]int64, n)
		for i := range seq {
			seq[i] = int64(i%7) + 1
		}
		out := make([]int64, n)
		SeqScanOp(out, seq, perm, op, 11)
		acc := int64(11)
		for r, p := range perm {
			if out[p] != acc {
				t.Fatalf("n=%d: out[perm[%d]] = %d, want %d", n, r, out[p], acc)
			}
			acc = op(acc, seq[r])
		}
	}
}

// TestSeqMalformed: an out-of-range permutation entry must panic in
// the explicit guard, never touch memory outside the caller's slices.
func TestSeqMalformed(t *testing.T) {
	for _, bad := range []int64{-1, 4, 1 << 40} {
		perm := []int64{0, 1, bad, 3}
		seq := make([]int64, 4)
		out := make([]int64, 4)
		for name, call := range map[string]func(){
			"SeqRank":    func() { SeqRank(out, perm) },
			"SeqScanAdd": func() { SeqScanAdd(out, seq, perm) },
			"SeqScanOp":  func() { SeqScanOp(out, seq, perm, func(a, b int64) int64 { return a + b }, 0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(perm entry %d): no panic", name, bad)
					}
				}()
				call()
			}()
		}
	}
	// Length mismatches must panic too.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SeqScanAdd length mismatch: no panic")
			}
		}()
		SeqScanAdd(make([]int64, 4), make([]int64, 3), make([]int64, 4))
	}()
}

func TestSeqZeroAlloc(t *testing.T) {
	const n = 1 << 12
	perm := randPerm(n, 3)
	seq := make([]int64, n)
	out := make([]int64, n)
	op := func(a, b int64) int64 { return a + b }
	if a := testing.AllocsPerRun(10, func() {
		SeqRank(out, perm)
		SeqScanAdd(out, seq, perm)
		SeqScanOp(out, seq, perm, op, 0)
	}); a != 0 {
		t.Errorf("sequential kernels allocated %v per run, want 0", a)
	}
}
