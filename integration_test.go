package listrank

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestEquivalenceMatrix runs the sublist algorithm across a grid of
// list shapes and sizes and demands results bit-identical to the
// serial walk: the central integration property of the whole
// repository. Package repro runs the same grid for the paper's other
// algorithms and the simulated machines.
func TestEquivalenceMatrix(t *testing.T) {
	shapes := map[string]func(n int) *List{
		"random":  func(n int) *List { return NewRandomList(n, 17) },
		"ordered": NewOrderedList,
		"reversed": func(n int) *List {
			order := make([]int, n)
			for i := range order {
				order[i] = n - 1 - i
			}
			return FromOrder(order)
		},
	}
	for shapeName, mk := range shapes {
		for _, n := range []int{64, 1500, 40000} {
			l := mk(n)
			for i := range l.Value {
				l.Value[i] = int64((i*37)%201 - 100)
			}
			name := fmt.Sprintf("%s/n=%d", shapeName, n)
			got := ScanWith(l, Options{Seed: uint64(n)})
			equal(t, got, ScanWith(l, Options{Algorithm: Serial}), "scan "+name)
			gotR := RankWith(l, Options{Seed: uint64(n)})
			equal(t, gotR, RankWith(l, Options{Algorithm: Serial}), "rank "+name)
		}
	}
}

// TestRanksArePermutation: whatever the algorithm, the ranks of an
// n-list are exactly {0, …, n-1}.
func TestRanksArePermutation(t *testing.T) {
	f := func(seed uint64, nn uint16, algPick uint8) bool {
		n := int(nn%3000) + 1
		l := NewRandomList(n, seed)
		alg := []Algorithm{Sublist, Serial}[algPick%2]
		ranks := RankWith(l, Options{Algorithm: alg, Seed: seed})
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

// TestScanTelescopes: for any list and values, out[next[v]] - out[v]
// == value[v] along the list (the defining property of an exclusive
// scan), checked on the default algorithm.
func TestScanTelescopes(t *testing.T) {
	f := func(seed uint64, nn uint16) bool {
		n := int(nn%5000) + 2
		l := NewRandomList(n, seed)
		for i := range l.Value {
			l.Value[i] = int64(i%13) - 6
		}
		out := ScanWith(l, Options{Seed: seed})
		v := l.Head
		for {
			nx := l.Next[v]
			if nx == v {
				return true
			}
			if out[nx]-out[v] != l.Value[v] {
				return false
			}
			v = nx
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDeterminism: same seed and options → identical behavior;
// different seeds → identical results regardless.
func TestDeterminism(t *testing.T) {
	l := NewRandomList(20000, 3)
	a := RankWith(l, Options{Seed: 5, Procs: 4})
	b := RankWith(l, Options{Seed: 5, Procs: 4})
	equal(t, a, b, "same-seed runs")
	c := RankWith(l, Options{Seed: 6, Procs: 3})
	equal(t, a, c, "cross-seed results")
}

// TestTinyLists exercises every entry point on the degenerate sizes.
func TestTinyLists(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		l := NewRandomList(n, uint64(n))
		want := RankWith(l, Options{Algorithm: Serial})
		equal(t, RankWith(l, Options{}), want, fmt.Sprintf("n=%d rank", n))
		equal(t, ScanWith(l, Options{}), ScanWith(l, Options{Algorithm: Serial}), fmt.Sprintf("n=%d scan", n))
	}
}
