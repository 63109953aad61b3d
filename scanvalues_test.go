package listrank

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"listrank/internal/list"
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

// scanValuesPaths returns ScanValues' answer and, called directly, the
// ranked path's, so that inputs below scanValuesRankedMin, where
// ScanValues walks, still check the ranked path. l must be non-empty.
func scanValuesPaths[T any](l *List, vals []T, op func(T, T) T, identity T, opt Options) map[string][]T {
	ranked := make([]T, l.Len())
	scanValuesRanked(l, vals, op, identity, opt, ranked)
	return map[string][]T{"ScanValues": ScanValues(l, vals, op, identity, opt), "ranked": ranked}
}

func TestScanValuesIntMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 100, 2047, 2048, 5000, 100000, scanValuesRankedMin} {
		l := NewRandomList(n, uint64(n))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i%17 - 8)
		}
		copy(l.Value, vals)
		want := ScanWith(l, Options{Algorithm: Serial})
		for path, got := range scanValuesPaths(l, vals, func(a, b int64) int64 { return a + b }, 0, Options{Seed: 3}) {
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s n=%d: out[%d] = %d, want %d", path, n, v, got[v], want[v])
				}
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
		for path, got := range scanValuesPaths(l, vals, concat, "", Options{Seed: 5, M: 37}) {
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s n=%d: out[%d] = %q, want %q", path, n, v, got[v], want[v])
				}
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
	for path, got := range scanValuesPaths(l, vals, compose, id, Options{Seed: 13}) {
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: out[%d] = %v, want %v", path, v, got[v], want[v])
			}
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
	for path, got := range scanValuesPaths(l, vals, mul, id, Options{Seed: 19, Procs: 4}) {
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: out[%d] = %v, want %v", path, v, got[v], want[v])
			}
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
		for path, got := range scanValuesPaths(l, vals, add, 0, opt) {
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s opt %+v: out[%d] = %d, want %d", path, opt, v, got[v], want[v])
				}
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
		for path, got := range scanValuesPaths(l, vals, concat, "", Options{Seed: 29}) {
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s %s: out[%d] = %q, want %q", path, name, v, got[v], want[v])
				}
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
		for _, got := range scanValuesPaths(l, vals, concat, "", opt) {
			for v := range want {
				if got[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestScanValuesMalformedPanics: on two malformed lists, ScanValues
// and its ranked path must panic within the watchdog instead of
// spinning or returning a wrong answer. The 2-cycle probe is an ordered
// list with Next[n-2] = n-3, so the tail is unreachable; its rows are
// the sublist path's and the walk's at the time each gained a hang
// guard, ten seeds each, at the default M and at M = n/4. The ranked
// path runs the M = n/4 row at Procs 1: a cut inside the 2-cycle sets
// two of the engine's lanes on its vertices, which at Procs 2 is a
// write race on their records that the engine does not yet prevent.
// The chain-plus-cycle probe exits its chain to the tail after n/2
// links and leaves n/2…n−2 as a cycle off the path, on which the walk
// used to return and the engine returns garbage ranks; it runs on both
// sides of scanValuesRankedMin at Procs 1 and 2, with and without
// Serial.
func TestScanValuesMalformedPanics(t *testing.T) {
	add := func(a, b int64) int64 { return a + b }
	twoCycle := func(n int) *List {
		l := NewOrderedList(n)
		l.Next[n-2] = int64(n - 3)
		return l
	}
	chainPlusCycle := func(n int) *List {
		l := NewOrderedList(n)
		l.Next[n/2-1] = int64(n - 1)
		l.Next[n-2] = int64(n / 2)
		return l
	}
	type row struct {
		probe       func(int) *List
		n, procs, m int
		alg         Algorithm
		seeds       uint64
	}
	rows := []row{
		{twoCycle, 1000, 1, 0, Sublist, 10},
		{twoCycle, 1000, 1, 0, Serial, 10},
		{twoCycle, 5000, 2, 0, Sublist, 10},
		{twoCycle, 5000, 2, 5000 / 4, Sublist, 10},
		{twoCycle, 5000, 2, 0, Serial, 10},
	}
	for _, n := range []int{1000, 5000, 1 << 16, scanValuesRankedMin} {
		for _, procs := range []int{1, 2} {
			for _, alg := range []Algorithm{Sublist, Serial} {
				rows = append(rows, row{chainPlusCycle, n, procs, 0, alg, 2})
			}
		}
	}
	for _, tc := range rows {
		l := tc.probe(tc.n)
		vals := make([]int64, tc.n)
		for seed := uint64(1); seed <= tc.seeds; seed++ {
			opt := Options{Algorithm: tc.alg, Procs: tc.procs, M: tc.m, Seed: seed}
			ranked := opt
			if tc.m > 0 {
				ranked.Procs = 1
			}
			for path, scan := range map[string]func(){
				"ScanValues": func() { ScanValues(l, vals, add, 0, opt) },
				"ranked":     func() { scanValuesRanked(l, vals, add, 0, ranked, make([]int64, tc.n)) },
			} {
				done := make(chan any, 1)
				go func() {
					defer func() { done <- recover() }()
					scan()
				}()
				select {
				case r := <-done:
					if r == nil {
						t.Fatalf("%s n=%d %+v: completed on a malformed list instead of panicking", path, tc.n, opt)
					}
					if err, ok := r.(error); !ok || !errors.Is(err, list.ErrNotList) {
						t.Fatalf("%s n=%d %+v: panicked with %v, want list.ErrNotList", path, tc.n, opt, r)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s n=%d %+v: still running after 10s (hang)", path, tc.n, opt)
				}
			}
		}
	}
}
