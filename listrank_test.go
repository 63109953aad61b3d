package listrank

import (
	"testing"
	"testing/quick"
)

func equal(t *testing.T, got, want []int64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d want %d", what, i, got[i], want[i])
		}
	}
}

func TestListBuilders(t *testing.T) {
	for _, l := range []*List{
		NewRandomList(1000, 1),
		NewOrderedList(1000),
		FromOrder([]int{2, 0, 1, 3}),
	} {
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if NewRandomList(5, 1).Len() != 5 {
		t.Fatal("Len wrong")
	}
}

// TestAllAlgorithmsAgree: the sublist algorithm and the serial walk
// give the same ranks and scans. The paper's other algorithms are held
// to the serial walk in package repro.
func TestAllAlgorithmsAgree(t *testing.T) {
	l := NewRandomList(30000, 2)
	equal(t, RankWith(l, Options{Seed: 3}), RankWith(l, Options{Algorithm: Serial}), "rank")
	equal(t, ScanWith(l, Options{Seed: 4}), ScanWith(l, Options{Algorithm: Serial}), "scan")
}

func TestDefaultEntryPoints(t *testing.T) {
	l := NewRandomList(50000, 5)
	equal(t, Rank(l), RankWith(l, Options{Algorithm: Serial}), "Rank default")
	equal(t, Scan(l), ScanWith(l, Options{Algorithm: Serial}), "Scan default")
}

// TestEmptyListEveryEntryPoint: an empty list has an empty rank and
// scan on every entry point and under both algorithms, as ScanValues,
// Reorder and Server already give it; none may panic.
func TestEmptyListEveryEntryPoint(t *testing.T) {
	l := &List{}
	add := func(a, b int64) int64 { return a + b }
	e := NewEngine()
	calls := map[string]func() []int64{
		"Rank": func() []int64 { return Rank(l) },
		"Scan": func() []int64 { return Scan(l) },
	}
	for alg, opt := range map[string]Options{"sublist": {}, "serial": {Algorithm: Serial}} {
		opt := opt
		calls["RankWith/"+alg] = func() []int64 { return RankWith(l, opt) }
		calls["ScanWith/"+alg] = func() []int64 { return ScanWith(l, opt) }
		calls["ScanOpWith/"+alg] = func() []int64 { return ScanOpWith(l, add, 0, opt) }
		calls["RankInto/"+alg] = func() []int64 { dst := []int64{}; RankInto(dst, l, opt); return dst }
		calls["ScanInto/"+alg] = func() []int64 { dst := []int64{}; ScanInto(dst, l, opt); return dst }
		calls["ScanOpInto/"+alg] = func() []int64 { dst := []int64{}; ScanOpInto(dst, l, add, 0, opt); return dst }
		calls["Engine.RankInto/"+alg] = func() []int64 { dst := []int64{}; e.RankInto(dst, l, opt); return dst }
		calls["Engine.ScanInto/"+alg] = func() []int64 { dst := []int64{}; e.ScanInto(dst, l, opt); return dst }
		calls["Engine.ScanOpInto/"+alg] = func() []int64 {
			dst := []int64{}
			e.ScanOpInto(dst, l, add, 0, opt)
			return dst
		}
	}
	for name, call := range calls {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked on an empty list: %v", name, r)
				}
			}()
			if got := call(); got == nil || len(got) != 0 {
				t.Errorf("%s: got %v, want an empty, non-nil result", name, got)
			}
		}()
	}
}

func TestRankIsScanOfOnes(t *testing.T) {
	f := func(seed uint64, nn uint16) bool {
		n := int(nn%5000) + 1
		l := NewRandomList(n, seed)
		r := Rank(l)
		s := Scan(l) // builder sets unit values
		for i := range r {
			if r[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestScanOpWith(t *testing.T) {
	l := NewRandomList(10000, 6)
	maxOp := func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	const negInf = int64(-1 << 62)
	want := ScanOpWith(l, maxOp, negInf, Options{Algorithm: Serial})
	equal(t, ScanOpWith(l, maxOp, negInf, Options{Seed: 7}), want, "scanop")
}

func TestOptionsKnobs(t *testing.T) {
	l := NewRandomList(20000, 8)
	want := Rank(l)
	for _, opt := range []Options{
		{Procs: 1}, {Procs: 4}, {M: 100}, {M: 5000},
		{LaneWidth: 32}, {LaneWidth: 1, Procs: 2}, {Seed: 99},
	} {
		equal(t, RankWith(l, opt), want, "options variant")
	}
}

func TestInputUnchanged(t *testing.T) {
	l := NewRandomList(10000, 9)
	next := append([]int64(nil), l.Next...)
	val := append([]int64(nil), l.Value...)
	for _, alg := range []Algorithm{Sublist, Serial} {
		_ = RankWith(l, Options{Algorithm: alg, Seed: 10})
		_ = ScanWith(l, Options{Algorithm: alg, Seed: 10})
	}
	for i := range next {
		if l.Next[i] != next[i] || l.Value[i] != val[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}
