package core

import (
	"fmt"
	"testing"

	"listrank/internal/list"
	"listrank/internal/par"
	"listrank/internal/rng"
)

// The lane-interleaved kernels must be invisible in the results: for
// every lane width, every Procs and every engine path (narrow rank,
// addition scan in the narrow and the wide layout, generic-operator
// scan), the output must equal the single-cursor serial oracle's — and,
// since the splitter draw depends only on the seed, must be
// bit-identical across all of them.

var laneTestWidths = []int{1, 2, 4, 8, 16, 32}

// laneTestLists builds the odd list shapes the kernels must survive:
// random order (the benchmark workload), sequential order, and sizes
// around the serial cutoff and chunk boundaries. Each comes with the
// options every run on it shares (Seed, Procs and LaneWidth are set
// per run).
func laneTestLists() map[string]laneCase {
	return map[string]laneCase{
		// Just above an explicit SerialCutoff: DefaultM's few sublists
		// leave most lanes empty.
		"random-2k": {list.NewRandom(2048, rng.New(3)), Options{SerialCutoff: 2047}},
		// Odd size, ~16-link sublists: lanes retire and refill often.
		"random-20k":  {list.NewRandom(20000, rng.New(4)), Options{M: 20000 / 16}},
		"ordered-10k": {list.NewOrdered(10000), Options{}},
		// Mid regime, multi-chunk.
		"random-300k": {list.NewRandom(300000, rng.New(5)), Options{}},
	}
}

// laneCase is one of laneTestLists' lists with its shared options.
type laneCase struct {
	l   *list.List
	opt Options
}

func TestLaneWidthsAgree(t *testing.T) {
	for name, lc := range laneTestLists() {
		l, n := lc.l, lc.l.Len()
		base := lc.opt
		base.Seed = 12
		oracle := base
		oracle.LaneWidth = 1
		want := Ranks(l, oracle)
		wantScan := Scan(l, oracle)
		// Order-sensitive probe op, deliberately non-associative: every
		// run below shares the oracle's seed and therefore its sublist
		// decomposition and Phase 2 grouping, so any difference in fold
		// order — the thing lane interleaving must not change — shows.
		op := func(a, b int64) int64 { return 3*a + b }
		wantOp := ScanOp(l, op, 0, oracle)
		for _, procs := range []int{1, 4} {
			for _, K := range laneTestWidths {
				t.Run(fmt.Sprintf("%s/procs=%d/K=%d", name, procs, K), func(t *testing.T) {
					opt := base
					opt.Procs, opt.LaneWidth = procs, K
					got := Ranks(l, opt)
					for v := 0; v < n; v++ {
						if got[v] != want[v] {
							t.Fatalf("Ranks: vertex %d: got %d, want %d", v, got[v], want[v])
						}
					}
					for _, de := range []bool{false, true} { // narrow, wide
						opt.DisableEncoding = de
						got = Scan(l, opt)
						for v := 0; v < n; v++ {
							if got[v] != wantScan[v] {
								t.Fatalf("Scan (generic=%v): vertex %d: got %d, want %d", de, v, got[v], wantScan[v])
							}
						}
					}
					got = ScanOp(l, op, 0, opt)
					for v := 0; v < n; v++ {
						if got[v] != wantOp[v] {
							t.Fatalf("ScanOp: vertex %d: got %d, want %d", v, got[v], wantOp[v])
						}
					}
				})
			}
		}
	}
}

// TestLaneWidthExtremes: degenerate splitter populations — M far
// larger than the lane supply (all-singleton sublists, constant
// refill) and M=1 (two sublists, most lanes never fill).
func TestLaneWidthExtremes(t *testing.T) {
	l := list.NewRandom(5000, rng.New(9))
	want := Ranks(l, Options{Seed: 5, LaneWidth: 1, SerialCutoff: 1})
	for _, m := range []int{1, 2, 2500} {
		for _, K := range laneTestWidths {
			opt := Options{Seed: 5, M: m, LaneWidth: K, SerialCutoff: 1}
			got := Ranks(l, opt)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("M=%d K=%d: vertex %d: got %d, want %d", m, K, v, got[v], want[v])
				}
			}
		}
	}
}

// TestLaneWidthStatsInvariant: every engine path — rank and addition
// scan in the narrow and the wide layout, generic-operator scan —
// visits each vertex once in Phase 1 and once in Phase 3, so the link
// count is exactly 2n at every lane width: lanes add memory-level
// parallelism, not work.
func TestLaneWidthStatsInvariant(t *testing.T) {
	l := list.NewRandom(1<<15, rng.New(2))
	want := int64(2 * l.Len())
	for _, K := range laneTestWidths {
		for name, run := range map[string]func(Options){
			"Ranks":  func(o Options) { Ranks(l, o) },
			"Scan":   func(o Options) { Scan(l, o) },
			"ScanOp": func(o Options) { ScanOp(l, func(a, b int64) int64 { return max(a, b) }, 0, o) },
			"Ranks/generic": func(o Options) {
				o.DisableEncoding = true
				Ranks(l, o)
			},
			"Scan/generic": func(o Options) {
				o.DisableEncoding = true
				Scan(l, o)
			},
		} {
			var st Stats
			run(Options{Seed: 3, LaneWidth: K, Stats: &st})
			if st.LinksTraversed != want {
				t.Errorf("%s K=%d: LinksTraversed = %d, want %d", name, K, st.LinksTraversed, want)
			}
		}
	}
}

// TestLaneWidthZeroAlloc: the lane kernels keep the engine's warm
// zero-allocation guarantee at Procs 1 and 4 for explicit widths too.
func TestLaneWidthZeroAlloc(t *testing.T) {
	l := list.NewRandom(1<<16, rng.New(8))
	dst := make([]int64, l.Len())
	for _, procs := range []int{1, 4} {
		pl := par.NewPool(procs)
		sc := NewScratch()
		sc.SetPool(pl)
		for _, K := range []int{1, 8, 32} {
			opt := Options{Seed: 4, Procs: procs, LaneWidth: K}
			RanksInto(dst, l, opt, sc) // warm
			ScanInto(dst, l, opt, sc)
			allocs := testing.AllocsPerRun(3, func() {
				RanksInto(dst, l, opt, sc)
				ScanInto(dst, l, opt, sc)
			})
			if allocs != 0 {
				t.Errorf("procs=%d K=%d: %v allocs/op, want 0", procs, K, allocs)
			}
		}
		pl.Close()
	}
}
