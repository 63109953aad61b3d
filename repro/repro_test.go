package repro

import (
	"fmt"
	"testing"
	"testing/quick"

	"listrank"
)

// all is every algorithm, Serial included.
var all = []Algorithm{Sublist, Serial, Wyllie, MillerReif, AndersonMiller, RulingSet}

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

func serialRank(l *listrank.List) []int64 {
	return listrank.RankWith(l, listrank.Options{Algorithm: listrank.Serial})
}

func serialScan(l *listrank.List) []int64 {
	return listrank.ScanWith(l, listrank.Options{Algorithm: listrank.Serial})
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

// TestAllAlgorithmsAgree: every algorithm gives the serial walk's
// ranks and scans.
func TestAllAlgorithmsAgree(t *testing.T) {
	l := listrank.NewRandomList(30000, 2)
	want, wantScan := serialRank(l), serialScan(l)
	for _, alg := range all {
		equal(t, Rank(l, Options{Algorithm: alg, Seed: 3}), want, "rank "+alg.String())
		equal(t, Scan(l, Options{Algorithm: alg, Seed: 4}), wantScan, "scan "+alg.String())
	}
}

// TestEquivalenceMatrix runs every algorithm on both tracks across a
// grid of list shapes and sizes and demands results bit-identical to
// the serial walk.
func TestEquivalenceMatrix(t *testing.T) {
	shapes := map[string]func(n int) *listrank.List{
		"random":  func(n int) *listrank.List { return listrank.NewRandomList(n, 17) },
		"ordered": listrank.NewOrderedList,
		"reversed": func(n int) *listrank.List {
			order := make([]int, n)
			for i := range order {
				order[i] = n - 1 - i
			}
			return listrank.FromOrder(order)
		},
	}
	for shapeName, mk := range shapes {
		for _, n := range []int{64, 1500, 40000} {
			l := mk(n)
			for i := range l.Value {
				l.Value[i] = int64((i*37)%201 - 100)
			}
			want, wantRank := serialScan(l), serialRank(l)
			for _, alg := range all {
				name := fmt.Sprintf("%s/%s/n=%d", shapeName, alg, n)
				equal(t, Scan(l, Options{Algorithm: alg, Seed: uint64(n)}), want, "scan "+name)
				equal(t, Rank(l, Options{Algorithm: alg, Seed: uint64(n)}), wantRank, "rank "+name)
			}
			// The simulated machines must agree too.
			for _, alg := range []Algorithm{Sublist, Wyllie} {
				out, _, err := SimulateC90(l, alg, 2, false, uint64(n))
				if err != nil {
					t.Fatal(err)
				}
				equal(t, out, want, fmt.Sprintf("sim scan %s/%s/n=%d", shapeName, alg, n))
			}
			outA, _ := SimulateAlpha(l, false, false)
			equal(t, outA, want, "alpha scan "+shapeName)
		}
	}
}

// TestScanOp: the algorithms that take a general operator, and those
// that run it as Sublist, all give the serial walk's max-scan.
func TestScanOp(t *testing.T) {
	l := listrank.NewRandomList(10000, 6)
	maxOp := func(a, b int64) int64 { return max(a, b) }
	const negInf = int64(-1 << 62)
	want := listrank.ScanOpWith(l, maxOp, negInf, listrank.Options{Algorithm: listrank.Serial})
	for _, alg := range all {
		equal(t, ScanOp(l, maxOp, negInf, Options{Algorithm: alg, Seed: 7}), want, "scanop "+alg.String())
	}
}

// TestRanksArePermutation: whatever the algorithm, the ranks of an
// n-list are exactly {0, …, n-1}.
func TestRanksArePermutation(t *testing.T) {
	f := func(seed uint64, nn uint16, algPick uint8) bool {
		n := int(nn%3000) + 1
		l := listrank.NewRandomList(n, seed)
		ranks := Rank(l, Options{Algorithm: all[int(algPick)%len(all)], Seed: seed})
		seen := make([]bool, n)
		for _, r := range ranks {
			if r < 0 || int(r) >= n || seen[r] {
				return false
			}
			seen[r] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTinyLists runs every algorithm and the simulator on the
// degenerate sizes.
func TestTinyLists(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		l := listrank.NewRandomList(n, uint64(n))
		want := serialRank(l)
		for _, alg := range all {
			equal(t, Rank(l, Options{Algorithm: alg}), want, fmt.Sprintf("n=%d %s", n, alg))
		}
		if out, _, err := SimulateC90(l, Sublist, 1, true, 1); err != nil || len(out) != n {
			t.Fatalf("n=%d sim failed: %v", n, err)
		}
	}
}

// TestEmptyList: an empty list has an empty, non-nil result under
// every algorithm and operation; none may panic.
func TestEmptyList(t *testing.T) {
	l := &listrank.List{}
	add := func(a, b int64) int64 { return a + b }
	for _, alg := range all {
		opt := Options{Algorithm: alg}
		for name, got := range map[string][]int64{
			"Rank":   Rank(l, opt),
			"Scan":   Scan(l, opt),
			"ScanOp": ScanOp(l, add, 0, opt),
		} {
			if got == nil || len(got) != 0 {
				t.Errorf("%s/%s: got %v, want an empty, non-nil result", name, alg, got)
			}
		}
	}
}

func TestInputUnchanged(t *testing.T) {
	l := listrank.NewRandomList(10000, 9)
	next := append([]int64(nil), l.Next...)
	val := append([]int64(nil), l.Value...)
	for _, alg := range all {
		_ = Rank(l, Options{Algorithm: alg, Seed: 10})
		_ = Scan(l, Options{Algorithm: alg, Seed: 10})
	}
	for i := range next {
		if l.Next[i] != next[i] || l.Value[i] != val[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

func TestSimulateC90(t *testing.T) {
	l := listrank.NewRandomList(20000, 11)
	want := serialRank(l)
	for _, alg := range []Algorithm{Sublist, Serial, Wyllie} {
		out, res, err := SimulateC90(l, alg, 1, true, 12)
		if err != nil {
			t.Fatal(err)
		}
		equal(t, out, want, "sim rank "+alg.String())
		if res.CyclesPerVertex <= 0 || res.NSPerVertex <= 0 {
			t.Errorf("%s: empty result %+v", alg.String(), res)
		}
	}
	// Scan on multiple processors.
	out, res, err := SimulateC90(l, Sublist, 4, false, 13)
	if err != nil {
		t.Fatal(err)
	}
	equal(t, out, serialScan(l), "sim scan 4p")
	_, res1, _ := SimulateC90(l, Sublist, 1, false, 13)
	if res.Cycles >= res1.Cycles {
		t.Errorf("4-processor run (%.0f) not faster than 1 (%.0f)", res.Cycles, res1.Cycles)
	}
}

func TestSimulateC90Errors(t *testing.T) {
	l := listrank.NewRandomList(100, 14)
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
	l := listrank.NewRandomList(8192, 15)
	want := serialRank(l)
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
	equal(t, outS, serialScan(l), "alpha scan")
}

// TestSimulatedTableIOrdering is the end-to-end sanity check of the
// whole simulation stack: Alpha memory > C90 serial > vectorized >
// 8-processor, as in Table I.
func TestSimulatedTableIOrdering(t *testing.T) {
	// Large enough that the list overflows the Alpha's 2MB cache and
	// the C90 runs near its asymptote.
	n := 1 << 19
	l := listrank.NewRandomList(n, 7)
	_, alphaNS := SimulateAlpha(l, true, false)
	alphaPer := alphaNS / float64(n)
	_, serialRes, err := SimulateC90(l, Serial, 1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, vecRes, err := SimulateC90(l, Sublist, 1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, p8Res, err := SimulateC90(l, Sublist, 8, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(alphaPer > serialRes.NSPerVertex &&
		serialRes.NSPerVertex > vecRes.NSPerVertex &&
		vecRes.NSPerVertex > p8Res.NSPerVertex) {
		t.Errorf("Table I ordering violated: alpha %.0f, serial %.0f, vec %.1f, 8p %.1f",
			alphaPer, serialRes.NSPerVertex, vecRes.NSPerVertex, p8Res.NSPerVertex)
	}
	// The abstract's headline: 8-processor ranking far faster than the
	// workstation (paper: 200x at full asymptote; at n=2^17 demand a
	// healthy two orders of magnitude region).
	if ratio := alphaPer / p8Res.NSPerVertex; ratio < 60 {
		t.Errorf("8p vs Alpha ratio only %.0fx", ratio)
	}
}
