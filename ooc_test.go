package listrank

import (
	"errors"
	"os"
	"testing"

	"listrank/internal/list"
)

// affineCompose treats a value m<<32|c as the map x -> m*x+c over
// uint32 and composes "a then b" — associative, non-commutative, with
// identity affineID. The strongest kind of operator for order bugs:
// any reassociation that isn't the left fold in list order shows.
func affineCompose(a, b int64) int64 {
	ma, ca := uint32(uint64(a)>>32), uint32(uint64(a))
	mb, cb := uint32(uint64(b)>>32), uint32(uint64(b))
	return int64(uint64(mb*ma)<<32 | uint64(mb*ca+cb))
}

const affineID = int64(1) << 32

// affineValues overwrites l.Value with packed affine maps.
func affineValues(l *List, seed uint64) {
	x := seed*2654435761 + 12345
	for i := range l.Value {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		l.Value[i] = int64(x)
	}
}

// stageOOC spills l (with values when withVals) in a few chunks.
func stageOOC(t *testing.T, l *List, opt OutOfCoreOptions, withVals bool) *OutOfCoreList {
	t.Helper()
	opt.Dir = t.TempDir()
	o, err := NewOutOfCoreList(l.Len(), opt)
	if err != nil {
		t.Fatal(err)
	}
	chunk := l.Len()/3 + 1
	for off := 0; off < l.Len(); off += chunk {
		e := min(off+chunk, l.Len())
		var vals []int64
		if withVals {
			vals = l.Value[off:e]
		}
		if err := o.Append(l.Next[off:e], vals); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func readAllOOC(t *testing.T, o *OutOfCoreList) []int64 {
	t.Helper()
	out := make([]int64, o.Len())
	// Read in two windows to exercise offsetting.
	half := len(out) / 2
	if err := o.ReadResult(0, out[:half]); err != nil {
		t.Fatal(err)
	}
	if err := o.ReadResult(half, out[half:]); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOutOfCoreMatchesOracle runs rank, scan and scanop on spilled
// lists of several shapes against the serial reference, with a budget
// small enough to force multiple segments.
func TestOutOfCoreMatchesOracle(t *testing.T) {
	n := 1 << 15
	page := int64(os.Getpagesize())
	for _, tc := range []struct {
		name string
		l    *List
	}{
		{"ordered", NewOrderedList(n)},
		{"random", NewRandomList(n, 99)},
	} {
		affineValues(tc.l, 7)
		opt := OutOfCoreOptions{Budget: 32 * page, Procs: 4, Seed: 5}
		o := stageOOC(t, tc.l, opt, true)

		if err := o.Rank(tc.l.Head); err != nil {
			t.Fatalf("%s: Rank: %v", tc.name, err)
		}
		st := o.Stats()
		if st.Segments < 4 {
			t.Fatalf("%s: only %d segments under a %d-byte budget", tc.name, st.Segments, opt.Budget)
		}
		if st.PeakResidentBytes <= 0 || st.PeakResidentBytes > opt.Budget {
			t.Fatalf("%s: peak resident %d outside (0, %d]", tc.name, st.PeakResidentBytes, opt.Budget)
		}
		if st.ResidentBytes != 0 {
			t.Fatalf("%s: %d bytes still mapped after Rank", tc.name, st.ResidentBytes)
		}
		wantRank := RankWith(tc.l, Options{Algorithm: Serial})
		checkSlice(t, tc.name+"/rank", readAllOOC(t, o), wantRank)

		if err := o.Scan(tc.l.Head); err != nil {
			t.Fatalf("%s: Scan: %v", tc.name, err)
		}
		wantScan := ScanWith(tc.l, Options{Algorithm: Serial})
		checkSlice(t, tc.name+"/scan", readAllOOC(t, o), wantScan)

		if err := o.ScanOp(tc.l.Head, affineCompose, affineID); err != nil {
			t.Fatalf("%s: ScanOp: %v", tc.name, err)
		}
		wantOp := ScanOpWith(tc.l, affineCompose, affineID, Options{Algorithm: Serial})
		checkSlice(t, tc.name+"/scanop", readAllOOC(t, o), wantOp)

		if err := o.Close(); err != nil {
			t.Fatalf("%s: Close: %v", tc.name, err)
		}
	}
}

func checkSlice(t *testing.T, what string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: out[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestOutOfCoreBudgetFourX is the acceptance gate: rank a list whose
// spilled arrays are at least 4x the resident budget and assert —
// in-test, via the byte-exact ledger — that peak resident mapped
// bytes never exceeded the budget, and the result is exact.
func TestOutOfCoreBudgetFourX(t *testing.T) {
	n := 1 << 20
	budget := int64(2 << 20) // next array alone is 8 MiB = 4x budget
	listBytes := int64(n) * 8
	if listBytes < 4*budget {
		t.Fatalf("test misconfigured: list %d bytes < 4x budget %d", listBytes, budget)
	}
	l := NewRandomList(n, 1234)
	o := stageOOC(t, l, OutOfCoreOptions{Budget: budget, Procs: 4}, false)
	defer o.Close()

	if err := o.Rank(l.Head); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.PeakResidentBytes <= 0 || st.PeakResidentBytes > budget {
		t.Fatalf("peak resident %d outside (0, %d]", st.PeakResidentBytes, budget)
	}
	if st.ResidentBytes != 0 {
		t.Fatalf("%d bytes still mapped after Rank", st.ResidentBytes)
	}
	if st.Segments < 4 {
		t.Fatalf("only %d segments; expected the budget to force several", st.Segments)
	}
	want := RankWith(l, Options{})
	checkSlice(t, "rank", readAllOOC(t, o), want)
}

// TestOutOfCoreErrors covers the failure surface: scans without
// staged values, incomplete staging, structural damage, pinned
// segment counts that cannot fit the budget, and use after Close.
func TestOutOfCoreErrors(t *testing.T) {
	l := NewOrderedList(4096)

	// Incomplete staging.
	o, err := NewOutOfCoreList(8192, OutOfCoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Append(l.Next, nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Rank(0); !errors.Is(err, ErrOutOfCore) {
		t.Fatalf("Rank of half-staged list: %v", err)
	}
	o.Close()

	// Scan without values.
	o = stageOOC(t, l, OutOfCoreOptions{}, false)
	if err := o.Scan(l.Head); !errors.Is(err, ErrOutOfCore) {
		t.Fatalf("Scan without values: %v", err)
	}
	// Pinned segment count too coarse for the budget.
	o.Close()
	page := int64(os.Getpagesize())
	o = stageOOC(t, l, OutOfCoreOptions{Budget: 16 * page, Segments: 1}, false)
	if err := o.Rank(l.Head); !errors.Is(err, ErrOutOfCore) {
		t.Fatalf("pinned S=1 over budget: %v", err)
	}
	o.Close()
	if err := o.Rank(l.Head); !errors.Is(err, ErrOutOfCore) {
		t.Fatalf("Rank after Close: %v", err)
	}

	// Structural damage: a mid-list cycle must fail, not hang or
	// return garbage.
	bad := NewOrderedList(4096)
	bad.Next[4095] = 17 // tail links back into the chain
	o = stageOOC(t, bad, OutOfCoreOptions{Budget: 64 * page}, false)
	defer o.Close()
	if err := o.Rank(bad.Head); !errors.Is(err, ErrOutOfCore) || !errors.Is(err, list.ErrNotList) {
		t.Fatalf("Rank of cyclic list: %v", err)
	}
	if _, err := os.Stat(o.dir); err != nil {
		t.Fatalf("spill dir should survive a failed call: %v", err)
	}

	// The head is the tail, and 1→2→3→1 is a cycle across both
	// segments: every run walk passes, and only the boundary rank of
	// the reduced list refuses it.
	rc := &List{Next: []int64{0, 2, 3, 1}, Value: make([]int64, 4)}
	o = stageOOC(t, rc, OutOfCoreOptions{Segments: 2}, false)
	defer o.Close()
	if err := o.Rank(rc.Head); !errors.Is(err, ErrOutOfCore) || !errors.Is(err, list.ErrNotList) {
		t.Fatalf("Rank of a list whose reduced list has a cycle: %v", err)
	}
}
