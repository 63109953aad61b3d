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
// across shapes, lane widths and processor counts. SerialCutoff 1
// keeps the shapes below the default cutoff on the engine.
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
				got := Ranks(l, Options{Procs: procs, LaneWidth: lw, SerialCutoff: 1, Stats: &st})
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
		got := Ranks(l, Options{M: 1500, LaneWidth: lw, SerialCutoff: 1})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("lanes=%d: rank[%d] = %d, want %d", lw, v, got[v], want[v])
			}
		}
	}
}

// TestScanEncodedDispatch: an addition scan takes the narrow layout
// exactly when its list's Σ|value| is below 2^31 (encMaxSum), so every
// value and local prefix fits the record's 32-bit field — a lone value
// at either int32 edge included — and stays exact in the wide layout
// when it is not: a lone MinInt32 (Σ = 2^31), two halves whose
// per-worker sums stay under the bound but whose total reaches it, the
// int32 extremes together, and a value outside int32. DisableEncoding
// sends rank and scan alike to the wide layout.
func TestScanEncodedDispatch(t *testing.T) {
	r := rng.New(21)
	l := list.NewRandom(1<<13, r)
	n := int64(l.Len())
	small := l.Clone()
	small.RandomValues(-1000, 1000, r)
	zero := l.Clone()
	clear(zero.Value)
	for _, tc := range []struct {
		name    string
		base    *list.List
		set     map[int64]int64 // vertex → value, over base's values
		disable bool
		encoded bool
	}{
		{"small", small, nil, false, true},
		{"plus-edge", zero, map[int64]int64{l.Head: math.MaxInt32}, false, true},
		{"minus-edge", zero, map[int64]int64{l.Head: -math.MaxInt32}, false, true},
		{"min-int32", zero, map[int64]int64{l.Head: math.MinInt32}, false, false},
		{"halves", zero, map[int64]int64{0: 1 << 30, n - 1: 1 << 30}, false, false},
		{"int32-extremes", small, map[int64]int64{17: math.MaxInt32, 18: math.MinInt32}, false, false},
		{"wide-positive", small, map[int64]int64{5: 1 << 40}, false, false},
		{"wide-negative", small, map[int64]int64{5: math.MinInt32 - 1}, false, false},
		{"disabled", small, nil, true, false},
	} {
		sl := tc.base.Clone()
		for v, x := range tc.set {
			sl.Value[v] = x
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
	equal(t, Ranks(small, Options{DisableEncoding: true, Stats: &st}), small.Ranks(), "disabled rank")
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
// layout's (DisableEncoding) bit for bit, and the serial walk's. Values
// over the full int32 range send the scans to the wide fallback; the
// edge lists' Σ|value| is 2^31 − 1, so their scans take the narrow
// layout with local prefixes near +2^31 or −2^31. SerialCutoff 1 keeps
// every list on the engine.
func TestEncodedMatchesGeneric(t *testing.T) {
	r := rng.New(23)
	fullRange := func(l *list.List) *list.List {
		l.RandomValues(math.MinInt32, math.MaxInt32, r)
		return l
	}
	for _, tc := range []struct {
		name   string
		l      *list.List
		narrow bool // whether the scans take the narrow layout
	}{
		{"random", fullRange(list.NewRandom(5000, r)), false},
		{"ordered", fullRange(list.NewOrdered(3000)), false},
		{"edge-plus", atSumBound(list.NewRandom(5000, r), 1, r), true},
		{"edge-minus", atSumBound(list.NewOrdered(3000), -1, r), true},
	} {
		l := tc.l
		wantRank, wantScan := l.Ranks(), serial.Scan(l)
		for seed := uint64(1); seed <= 3; seed++ {
			for _, procs := range []int{1, 2, 4} {
				gen := Options{Seed: seed, Procs: procs, DisableEncoding: true, SerialCutoff: 1}
				equal(t, Ranks(l, gen), wantRank, tc.name+" generic rank")
				equal(t, Scan(l, gen), wantScan, tc.name+" generic scan")
				for K := 1; K <= kernel.MaxLanes; K++ {
					what := fmt.Sprintf("%s seed=%d procs=%d K=%d", tc.name, seed, procs, K)
					var st Stats
					opt := Options{Seed: seed, Procs: procs, LaneWidth: K, SerialCutoff: 1, Stats: &st}
					equal(t, Ranks(l, opt), wantRank, what+" rank")
					equal(t, Scan(l, opt), wantScan, what+" scan")
					if st.Encoded != tc.narrow {
						t.Fatalf("%s scan: Stats.Encoded = %v, want %v", what, st.Encoded, tc.narrow)
					}
				}
			}
		}
	}
}

// atSumBound gives l values in [-5, 5] and sets its head's value, of
// the given sign, so that Σ|value| is 2^31 − 1: the largest total the
// narrow scan takes. The head sublist's local prefixes after the head
// then sit within about 25,000 of that edge.
func atSumBound(l *list.List, sign int64, r *rng.Rand) *list.List {
	l.RandomValues(-5, 5, r)
	l.Value[l.Head] = 0
	var abs int64
	for _, x := range l.Value {
		abs += max(x, -x)
	}
	l.Value[l.Head] = sign * (math.MaxInt32 - abs)
	return l
}
