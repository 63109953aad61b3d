package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"listrank/internal/kernel"
	"listrank/internal/list"
	"listrank/internal/rng"
	"listrank/internal/serial"
)

// TestRanksEncodedMatchesSerial drives the narrow single-gather layout
// across shapes, lane widths and processor counts.
func TestRanksEncodedMatchesSerial(t *testing.T) {
	shapes := map[string]*list.List{
		"random-2k":   list.NewRandom(2048, rng.New(1)),
		"random-9k":   list.NewRandom(9001, rng.New(2)),
		"ordered-4k":  list.NewOrdered(4096),
		"reversed-4k": list.NewReversed(4096),
		"blocked-5k":  list.NewBlocked(5000, 13, rng.New(3)),
	}
	for name, l := range shapes {
		want := serial.Ranks(l)
		for _, lw := range []int{1, 0} {
			for _, procs := range []int{1, 4} {
				var st Stats
				got := Ranks(l, Options{Procs: procs, LaneWidth: lw, Stats: &st})
				if !st.Encoded {
					t.Fatalf("%s lanes=%d procs=%d: encoded engine not used", name, lw, procs)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s lanes=%d procs=%d: rank[%d] = %d, want %d",
							name, lw, procs, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestRanksEncodedDoesNotMutate checks the engine's no-mutation
// guarantee (the cuts live only in the derived words) for a rank and,
// in the wide layout, a ScanOp.
func TestRanksEncodedDoesNotMutate(t *testing.T) {
	l := list.NewRandom(8192, rng.New(7))
	l.RandomValues(-5, 5, rng.New(8))
	before := l.Clone()
	Ranks(l, Options{Procs: 3})
	ScanOp(l, func(a, b int64) int64 { return max(a, b) }, -1<<62, Options{Procs: 3})
	for v := range l.Next {
		if l.Next[v] != before.Next[v] || l.Value[v] != before.Value[v] {
			t.Fatalf("vertex %d mutated", v)
		}
	}
	if l.Head != before.Head {
		t.Fatalf("head mutated")
	}
}

// TestRanksDisableEncoding checks the ablation escape hatch routes a
// rank through the wide layout and still agrees.
func TestRanksDisableEncoding(t *testing.T) {
	l := list.NewRandom(6000, rng.New(9))
	want := serial.Ranks(l)
	var st Stats
	got := Ranks(l, Options{DisableEncoding: true, Stats: &st})
	if st.Encoded {
		t.Fatal("DisableEncoding ignored")
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("rank[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// TestRanksEncodedSerialCutoff: below the cutoff the serial path runs
// (no encoding) and is still correct.
func TestRanksEncodedSerialCutoff(t *testing.T) {
	l := list.NewRandom(100, rng.New(10))
	want := serial.Ranks(l)
	var st Stats
	got := Ranks(l, Options{Stats: &st})
	if st.Encoded {
		t.Fatal("encoded engine used below the serial cutoff")
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("rank[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// TestRanksEncodedStats: the narrow run reports the same link and
// sublist counts as the wide one.
func TestRanksEncodedStats(t *testing.T) {
	l := list.NewRandom(1<<14, rng.New(11))
	var st, gen Stats
	Ranks(l, Options{Stats: &st})
	Ranks(l, Options{DisableEncoding: true, Stats: &gen})
	if !st.Encoded {
		t.Fatal("encoded engine not used")
	}
	n := int64(l.Len())
	if st.LinksTraversed != 2*n || gen.LinksTraversed != 2*n {
		t.Errorf("LinksTraversed = %d encoded, %d generic, want 2n = %d", st.LinksTraversed, gen.LinksTraversed, 2*n)
	}
	if st.Sublists != gen.Sublists {
		t.Errorf("Sublists = %d encoded, %d generic, want equal", st.Sublists, gen.Sublists)
	}
	if st.Sublists < 2 {
		t.Errorf("Sublists = %d, want >= 2", st.Sublists)
	}
}

// TestQuickRanksEncodedEqualGeneric: property — for random lists, the
// narrow and wide layouts agree vertex for vertex.
func TestQuickRanksEncodedEqualGeneric(t *testing.T) {
	f := func(seed uint64, sz uint16) bool {
		n := int(sz)%8000 + defaultSerialCutoff + 1
		l := list.NewRandom(n, rng.New(seed))
		a := Ranks(l, Options{Seed: seed})
		b := Ranks(l, Options{Seed: seed, DisableEncoding: true})
		for v := range a {
			if a[v] != b[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRanksEncodedSingleVertexSublists: a huge splitter count produces
// many length-1 sublists, which exercise the retire-on-arrival and
// lane-refill paths.
func TestRanksEncodedSingleVertexSublists(t *testing.T) {
	l := list.NewRandom(3000, rng.New(13))
	want := serial.Ranks(l)
	for _, lw := range []int{1, 0} {
		got := Ranks(l, Options{M: 1500, LaneWidth: lw})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("lanes=%d: rank[%d] = %d, want %d", lw, v, got[v], want[v])
			}
		}
	}
}

// TestScanEncodedDispatch: an addition scan takes the narrow layout
// exactly when every value fits in int32 — int32 extremes included —
// and stays exact in the wide layout when one does not.
// DisableEncoding sends rank and scan alike to the wide layout.
func TestScanEncodedDispatch(t *testing.T) {
	r := rng.New(21)
	l := list.NewRandom(1<<13, r)
	l.RandomValues(-1000, 1000, r)
	l.Value[17] = math.MaxInt32
	l.Value[18] = math.MinInt32
	for _, tc := range []struct {
		name    string
		wide    int64 // stored at vertex 5 when non-zero
		disable bool
		encoded bool
	}{
		{"int32", 0, false, true},
		{"wide-positive", 1 << 40, false, false},
		{"wide-negative", math.MinInt32 - 1, false, false},
		{"disabled", 0, true, false},
	} {
		sl := l.Clone()
		if tc.wide != 0 {
			sl.Value[5] = tc.wide
		}
		want := serial.Scan(sl)
		for _, procs := range []int{1, 2} {
			var st Stats
			got := Scan(sl, Options{Seed: 3, Procs: procs, DisableEncoding: tc.disable, Stats: &st})
			if st.Encoded != tc.encoded {
				t.Errorf("%s procs=%d: Stats.Encoded = %v, want %v", tc.name, procs, st.Encoded, tc.encoded)
			}
			if st.LinksTraversed != 2*int64(sl.Len()) {
				t.Errorf("%s procs=%d: LinksTraversed = %d, want 2n", tc.name, procs, st.LinksTraversed)
			}
			equal(t, got, want, tc.name)
		}
	}
	var st Stats
	equal(t, Ranks(l, Options{DisableEncoding: true, Stats: &st}), l.Ranks(), "disabled rank")
	if st.Encoded {
		t.Error("DisableEncoding rank: Stats.Encoded = true")
	}
}

// TestEncodedScanDoesNotMutate: like a rank, a scan cuts only its
// derived words, never the caller's list — a narrow scan, and a ScanOp
// in the wide layout.
func TestEncodedScanDoesNotMutate(t *testing.T) {
	r := rng.New(22)
	l := list.NewRandom(9000, r)
	l.RandomValues(-50, 50, r)
	before := l.Clone()
	var st Stats
	Scan(l, Options{Procs: 2, Stats: &st})
	if !st.Encoded {
		t.Fatal("encoded engine not used")
	}
	ScanOp(l, func(a, b int64) int64 { return a*3 + b }, 1, Options{Procs: 2, Stats: &st})
	if st.Encoded {
		t.Fatal("ScanOp reported the narrow layout")
	}
	for v := range l.Next {
		if l.Next[v] != before.Next[v] || l.Value[v] != before.Value[v] {
			t.Fatalf("vertex %d mutated", v)
		}
	}
}

// TestEncodedMatchesGeneric is the differential suite of the two
// layouts: for random and ordered lists, several seeds, Procs 1, 2 and
// 4 and every lane width 1..32, narrow ranks and scans equal the wide
// layout's (DisableEncoding) bit for bit, and the serial walk's.
func TestEncodedMatchesGeneric(t *testing.T) {
	r := rng.New(23)
	lists := map[string]*list.List{
		"random":  list.NewRandom(5000, r),
		"ordered": list.NewOrdered(3000),
	}
	for name, l := range lists {
		l.RandomValues(math.MinInt32, math.MaxInt32, r)
		wantRank, wantScan := l.Ranks(), serial.Scan(l)
		for seed := uint64(1); seed <= 3; seed++ {
			for _, procs := range []int{1, 2, 4} {
				gen := Options{Seed: seed, Procs: procs, DisableEncoding: true}
				equal(t, Ranks(l, gen), wantRank, name+" generic rank")
				equal(t, Scan(l, gen), wantScan, name+" generic scan")
				for K := 1; K <= kernel.MaxLanes; K++ {
					what := fmt.Sprintf("%s seed=%d procs=%d K=%d", name, seed, procs, K)
					opt := Options{Seed: seed, Procs: procs, LaneWidth: K}
					equal(t, Ranks(l, opt), wantRank, what+" rank")
					equal(t, Scan(l, opt), wantScan, what+" scan")
				}
			}
		}
	}
}
