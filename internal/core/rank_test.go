package core

import (
	"testing"
	"testing/quick"

	"listrank/internal/list"
	"listrank/internal/rng"
	"listrank/internal/serial"
)

// TestRanksEncodedMatchesSerial drives the single-gather engine across
// shapes, lane widths and processor counts.
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

// TestRanksEncodedDoesNotMutate checks the encoded engine's
// no-mutation guarantee (the cuts live only in the derived array).
func TestRanksEncodedDoesNotMutate(t *testing.T) {
	l := list.NewRandom(8192, rng.New(7))
	l.RandomValues(-5, 5, rng.New(8))
	before := l.Clone()
	Ranks(l, Options{Procs: 3})
	for v := range l.Next {
		if l.Next[v] != before.Next[v] || l.Value[v] != before.Value[v] {
			t.Fatalf("vertex %d mutated", v)
		}
	}
	if l.Head != before.Head {
		t.Fatalf("head mutated")
	}
}

// TestRanksDisableEncoding checks the ablation escape hatch routes
// through the generic engine and still agrees.
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

// TestRanksEncodedStats: the encoded run reports the same link and
// sublist counts as the generic engine.
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

// TestQuickRanksEncodedEqualGeneric: property — for random lists,
// encoded and generic engines agree vertex for vertex.
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
