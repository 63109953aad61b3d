package listrank

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// refScanValues is the obvious serial reference.
func refScanValues[T any](l *List, vals []T, op func(T, T) T, identity T) []T {
	out := make([]T, l.Len())
	if l.Len() == 0 {
		return out
	}
	acc := identity
	v := l.Head
	for {
		out[v] = acc
		if l.Next[v] == v {
			return out
		}
		acc = op(acc, vals[v])
		v = l.Next[v]
	}
}

func TestScanValuesIntMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 100, 2047, 2048, 5000, 100000} {
		l := NewRandomList(n, uint64(n))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i%17 - 8)
		}
		copy(l.Value, vals)
		want := ScanWith(l, Options{Algorithm: Serial})
		got := ScanValues(l, vals, func(a, b int64) int64 { return a + b }, 0, Options{Seed: 3})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("n=%d: out[%d] = %d, want %d", n, v, got[v], want[v])
			}
		}
	}
}

func TestScanValuesNonCommutative(t *testing.T) {
	// String concatenation: any reordering or re-association with the
	// wrong identity placement is immediately visible.
	for _, n := range []int{1, 5, 2048, 30000} {
		l := NewRandomList(n, uint64(n)*7+1)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("%c", 'a'+i%26)
		}
		concat := func(a, b string) string { return a + b }
		want := refScanValues(l, vals, concat, "")
		got := ScanValues(l, vals, concat, "", Options{Seed: 5, M: 37})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("n=%d: out[%d] = %q, want %q", n, v, got[v], want[v])
			}
		}
	}
}

// affine is f(x) = A·x + B; composition (f ∘ g)(x) = f(g(x)) is
// associative and non-commutative — the operator tree contraction
// composes along compressed chains.
type affine struct{ A, B int64 }

func compose(f, g affine) affine { return affine{f.A * g.A, f.A*g.B + f.B} }

// composeFlows is the flow order used by a bottom-up chain: the scan
// accumulates "earlier in list order applied last".
func TestScanValuesAffineComposition(t *testing.T) {
	n := 50000
	l := NewRandomList(n, 11)
	vals := make([]affine, n)
	for i := range vals {
		vals[i] = affine{int64(i%5 - 2), int64(i % 11)}
	}
	id := affine{1, 0}
	want := refScanValues(l, vals, compose, id)
	got := ScanValues(l, vals, compose, id, Options{Seed: 13})
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("out[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestScanValuesMat2(t *testing.T) {
	// 2×2 integer matrix product under wraparound.
	type mat [4]int64
	mul := func(a, b mat) mat {
		return mat{
			a[0]*b[0] + a[1]*b[2], a[0]*b[1] + a[1]*b[3],
			a[2]*b[0] + a[3]*b[2], a[2]*b[1] + a[3]*b[3],
		}
	}
	id := mat{1, 0, 0, 1}
	n := 20000
	l := NewRandomList(n, 17)
	vals := make([]mat, n)
	for i := range vals {
		vals[i] = mat{int64(i % 3), 1, int64(i % 2), 1}
	}
	want := refScanValues(l, vals, mul, id)
	got := ScanValues(l, vals, mul, id, Options{Seed: 19, Procs: 4})
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("out[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestScanValuesOptionSweep(t *testing.T) {
	n := 40000
	l := NewRandomList(n, 23)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	add := func(a, b int64) int64 { return a + b }
	want := refScanValues(l, vals, add, 0)
	for _, opt := range []Options{
		{Algorithm: Serial},
		{Procs: 1},
		{Procs: 2},
		{Procs: 7, Seed: 1},
		{Procs: 16, M: 9, Seed: 2},
		{Procs: 4, M: n / 2, Seed: 3},
		{Procs: 4, M: 19999, Seed: 4},
	} {
		got := ScanValues(l, vals, add, 0, opt)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("opt %+v: out[%d] = %d, want %d", opt, v, got[v], want[v])
			}
		}
	}
}

func TestScanValuesOrderedAndReversedLists(t *testing.T) {
	concat := func(a, b string) string { return a + b }
	n := 4096
	for name, l := range map[string]*List{
		"ordered": NewOrderedList(n),
		"random":  NewRandomList(n, 5),
	} {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = string(rune('A' + i%26))
		}
		want := refScanValues(l, vals, concat, "")
		got := ScanValues(l, vals, concat, "", Options{Seed: 29})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: out[%d] = %q, want %q", name, v, got[v], want[v])
			}
		}
	}
}

func TestScanValuesDoesNotMutate(t *testing.T) {
	n := 10000
	l := NewRandomList(n, 31)
	next := append([]int64(nil), l.Next...)
	vals := make([]int64, n)
	ScanValues(l, vals, func(a, b int64) int64 { return a + b }, 0, Options{Seed: 1})
	for v := range next {
		if l.Next[v] != next[v] {
			t.Fatalf("Next[%d] mutated: %d -> %d", v, next[v], l.Next[v])
		}
	}
}

func TestScanValuesEmptyAndMismatch(t *testing.T) {
	empty := &List{}
	out := ScanValues(empty, nil, func(a, b int64) int64 { return a + b }, 0, Options{})
	if len(out) != 0 {
		t.Errorf("empty list: got %d outputs", len(out))
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch: want panic")
		}
	}()
	l := NewOrderedList(4)
	ScanValues(l, make([]int64, 3), func(a, b int64) int64 { return a + b }, 0, Options{})
}

func TestScanValuesQuick(t *testing.T) {
	concat := func(a, b string) string { return a + b }
	f := func(seed uint64, mRaw uint16, procs uint8) bool {
		n := 1 + int(seed%5000)
		l := NewRandomList(n, seed)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = string(rune('a' + (int(seed)+i)%26))
		}
		opt := Options{Seed: seed * 999, M: int(mRaw) % n, Procs: 1 + int(procs%8)}
		want := refScanValues(l, vals, concat, "")
		got := ScanValues(l, vals, concat, "", opt)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestScanValuesMalformedPanics: on the 2-cycle probe — an ordered list
// with Next[n-2] = n-3, so the tail is unreachable — ScanValues must
// panic within the watchdog instead of spinning: at n = 1000 on the
// serial walk (Procs 1, or Algorithm Serial) and at n = 5000, Procs 2,
// on the sublist path and with Algorithm Serial. The sublist rows run
// ten seeds at the default M and at M = n/4. With few cuts the cycle
// usually holds none and a Phase 1 worker must run out of links; at
// n/4 a cut often falls inside it, Phase 1 finishes, and the Phase 2
// walk must refuse the reduced list.
func TestScanValuesMalformedPanics(t *testing.T) {
	add := func(a, b int64) int64 { return a + b }
	for _, tc := range []struct {
		n, procs, m int
		alg         Algorithm
	}{
		{1000, 1, 0, Sublist},
		{1000, 1, 0, Serial},
		{5000, 2, 0, Sublist},
		{5000, 2, 5000 / 4, Sublist},
		{5000, 2, 0, Serial},
	} {
		l := NewOrderedList(tc.n)
		l.Next[tc.n-2] = int64(tc.n - 3)
		vals := make([]int64, tc.n)
		for seed := uint64(1); seed <= 10; seed++ {
			opt := Options{Algorithm: tc.alg, Procs: tc.procs, M: tc.m, Seed: seed}
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				ScanValues(l, vals, add, 0, opt)
			}()
			select {
			case r := <-done:
				if r == nil {
					t.Fatalf("n=%d %+v: completed on a malformed list instead of panicking", tc.n, opt)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("n=%d %+v: still running after 10s (hang)", tc.n, opt)
			}
		}
	}
}
