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

func TestAllAlgorithmsAgree(t *testing.T) {
	l := NewRandomList(30000, 2)
	want := RankWith(l, Options{Algorithm: Serial})
	for _, alg := range []Algorithm{Sublist, Wyllie, MillerReif, AndersonMiller, RulingSet} {
		got := RankWith(l, Options{Algorithm: alg, Seed: 3})
		equal(t, got, want, "rank "+alg.String())
	}
	wantScan := ScanWith(l, Options{Algorithm: Serial})
	for _, alg := range []Algorithm{Sublist, Wyllie, MillerReif, AndersonMiller, RulingSet} {
		got := ScanWith(l, Options{Algorithm: alg, Seed: 4})
		equal(t, got, wantScan, "scan "+alg.String())
	}
}

func TestDefaultEntryPoints(t *testing.T) {
	l := NewRandomList(50000, 5)
	equal(t, Rank(l), RankWith(l, Options{Algorithm: Serial}), "Rank default")
	equal(t, Scan(l), ScanWith(l, Options{Algorithm: Serial}), "Scan default")
}

// TestEmptyListEveryEntryPoint: an empty list has an empty rank and
// scan on every entry point and under every algorithm, as ScanValues,
// Reorder and Server already give it; none may panic.
func TestEmptyListEveryEntryPoint(t *testing.T) {
	l := &List{}
	add := func(a, b int64) int64 { return a + b }
	e := NewEngine()
	calls := map[string]func() []int64{
		"Rank": func() []int64 { return Rank(l) },
		"Scan": func() []int64 { return Scan(l) },
	}
	for alg := Sublist; alg <= RulingSet; alg++ {
		opt := Options{Algorithm: alg}
		calls["RankWith/"+alg.String()] = func() []int64 { return RankWith(l, opt) }
		calls["ScanWith/"+alg.String()] = func() []int64 { return ScanWith(l, opt) }
		calls["ScanOpWith/"+alg.String()] = func() []int64 { return ScanOpWith(l, add, 0, opt) }
		calls["RankInto/"+alg.String()] = func() []int64 { dst := []int64{}; RankInto(dst, l, opt); return dst }
		calls["ScanInto/"+alg.String()] = func() []int64 { dst := []int64{}; ScanInto(dst, l, opt); return dst }
		calls["ScanOpInto/"+alg.String()] = func() []int64 { dst := []int64{}; ScanOpInto(dst, l, add, 0, opt); return dst }
		calls["Engine.RankInto/"+alg.String()] = func() []int64 { dst := []int64{}; e.RankInto(dst, l, opt); return dst }
		calls["Engine.ScanInto/"+alg.String()] = func() []int64 { dst := []int64{}; e.ScanInto(dst, l, opt); return dst }
		calls["Engine.ScanOpInto/"+alg.String()] = func() []int64 {
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
	for _, alg := range []Algorithm{Sublist, Wyllie} {
		got := ScanOpWith(l, maxOp, negInf, Options{Algorithm: alg, Seed: 7})
		equal(t, got, want, "scanop "+alg.String())
	}
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
	for _, alg := range []Algorithm{Sublist, Serial, Wyllie, MillerReif, AndersonMiller, RulingSet} {
		_ = RankWith(l, Options{Algorithm: alg, Seed: 10})
	}
	for i := range next {
		if l.Next[i] != next[i] || l.Value[i] != val[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		Sublist: "sublist", Serial: "serial", Wyllie: "wyllie",
		MillerReif: "miller-reif", AndersonMiller: "anderson-miller",
		RulingSet:     "ruling-set",
		Algorithm(99): "unknown",
	}
	for a, w := range names {
		if a.String() != w {
			t.Errorf("String() = %q want %q", a.String(), w)
		}
	}
}

func TestSimulateC90(t *testing.T) {
	l := NewRandomList(20000, 11)
	want := Rank(l)
	for _, alg := range []Algorithm{Sublist, Serial, Wyllie} {
		procs := 1
		out, res, err := SimulateC90(l, alg, procs, true, 12)
		if err != nil {
			t.Fatal(err)
		}
		equal(t, out, want, "sim rank "+alg.String())
		if res.CyclesPerVertex <= 0 || res.NSPerVertex <= 0 {
			t.Errorf("%s: empty result %+v", alg.String(), res)
		}
	}
	// Scan on multiple processors.
	wantScan := Scan(l)
	out, res, err := SimulateC90(l, Sublist, 4, false, 13)
	if err != nil {
		t.Fatal(err)
	}
	equal(t, out, wantScan, "sim scan 4p")
	_, res1, _ := SimulateC90(l, Sublist, 1, false, 13)
	if res.Cycles >= res1.Cycles {
		t.Errorf("4-processor run (%.0f) not faster than 1 (%.0f)", res.Cycles, res1.Cycles)
	}
}

func TestSimulateC90Errors(t *testing.T) {
	l := NewRandomList(100, 14)
	if _, _, err := SimulateC90(l, Sublist, 0, true, 1); err == nil {
		t.Error("procs=0 accepted")
	}
	if _, _, err := SimulateC90(l, Serial, 2, true, 1); err == nil {
		t.Error("multi-proc serial accepted")
	}
	if _, _, err := SimulateC90(l, MillerReif, 2, false, 1); err == nil {
		t.Error("multi-proc Miller-Reif accepted")
	}
}

func TestSimulateAlpha(t *testing.T) {
	l := NewRandomList(8192, 15)
	want := Rank(l)
	out, ns := SimulateAlpha(l, true, false)
	equal(t, out, want, "alpha rank")
	if ns <= 0 {
		t.Error("no time modeled")
	}
	out, warmNS := SimulateAlpha(l, true, true)
	equal(t, out, want, "alpha warm rank")
	if warmNS >= ns {
		t.Errorf("warm run (%.0f) not faster than cold (%.0f)", warmNS, ns)
	}
	outS, _ := SimulateAlpha(l, false, false)
	equal(t, outS, Scan(l), "alpha scan")
}
