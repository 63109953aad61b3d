package core

import (
	"fmt"
	"testing"

	"listrank/internal/list"
	"listrank/internal/par"
	"listrank/internal/rng"
	"listrank/internal/serial"
)

// TestScratchReuseAcrossSizes drives one arena through wildly varying
// list lengths, engines and lane widths; every result must match the
// serial reference, and the shared buffers must never leak state from
// one call into the next (sizes deliberately shrink as well as grow).
func TestScratchReuseAcrossSizes(t *testing.T) {
	sc := NewScratch()
	r := rng.New(41)
	sizes := []int{5000, 100, 1 << 15, 3000, 1 << 16, 777, 1 << 15}
	for _, n := range sizes {
		l := list.NewRandom(n, r)
		l.RandomValues(-30, 30, r)
		wantScan := serial.Scan(l)
		wantRank := l.Ranks()
		for _, lw := range []int{1, 0} {
			dst := make([]int64, n)
			ScanInto(dst, l, Options{Seed: uint64(n), LaneWidth: lw}, sc)
			equal(t, dst, wantScan, "scratch reuse scan")
			RanksInto(dst, l, Options{Seed: uint64(n), LaneWidth: lw}, sc)
			equal(t, dst, wantRank, "scratch reuse rank")
			RanksInto(dst, l, Options{Seed: uint64(n), LaneWidth: lw, DisableEncoding: true}, sc)
			equal(t, dst, wantRank, "scratch reuse rank generic")
		}
	}
}

// TestScratchReuseMatchesFresh: a reused arena must produce results
// byte-identical to a fresh arena for identical options, with a
// Phase 2 that runs the child engine in the child arena.
func TestScratchReuseMatchesFresh(t *testing.T) {
	r := rng.New(42)
	l := list.NewRandom(60000, r)
	l.RandomValues(-9, 9, r)
	sc := NewScratch()
	// Dirty the arena with unrelated runs first.
	warm := make([]int64, l.Len())
	ScanInto(warm, l, Options{Seed: 999}, sc)
	RanksInto(warm, l, Options{Seed: 998}, sc)
	requireChildEngine(t, l, Options{Seed: 43, SerialCutoff: 64, M: l.Len() / 16})
	for _, p := range []int{1, 4} {
		opt := Options{Seed: 43, Procs: p, SerialCutoff: 64, M: l.Len() / 16}
		fresh := make([]int64, l.Len())
		ScanInto(fresh, l, opt, NewScratch())
		reused := make([]int64, l.Len())
		ScanInto(reused, l, opt, sc)
		equal(t, reused, fresh, "reused vs fresh scan")
	}
}

// TestZeroAllocSteadyState is the engine's allocation contract: with a
// warm arena, rank and scan calls perform zero heap allocations —
// at the default lane width and the natural single-cursor walk
// (LaneWidth 1), in the encoded and generic rank and scan engines, the
// generic-operator scan, and a Phase 2 that walks or runs the child
// engine, with and without Stats — at Procs == 1
// (everything inline) *and* at Procs == 2 and 4, where every fan-out
// dispatches closure-free onto the arena's resident worker pool. The
// Procs > 1 legs use an arena-owned pool sized to the job so the
// guarantee holds regardless of the host machine's core count. The
// list's Σ|value| is below 2^31, so the scan cases without
// DisableEncoding run on the narrow word.
func TestZeroAllocSteadyState(t *testing.T) {
	n := 1 << 18
	l := list.NewRandom(n, rng.New(44))
	dst := make([]int64, n)
	// The recursive leg sets M so its reduced list (~16k sublists) runs
	// the child engine in the child arena, not the serial walk.
	recursive := Options{Seed: 7, M: n / 16}
	requireChildEngine(t, l, recursive)
	withStats := recursive
	withStats.Stats = new(Stats)
	for _, procs := range []int{1, 2, 4} {
		sc := NewScratch()
		if procs > 1 {
			pool := par.NewPool(procs)
			defer pool.Close()
			sc.SetPool(pool)
		}
		opt := func(o Options) Options { o.Procs = procs; return o }
		cases := []struct {
			name string
			run  func()
		}{
			{"scan-auto", func() { ScanInto(dst, l, opt(Options{Seed: 7}), sc) }},
			{"scan-natural", func() { ScanInto(dst, l, opt(Options{Seed: 7, LaneWidth: 1}), sc) }},
			{"scan-recursive-p2", func() { ScanInto(dst, l, opt(recursive), sc) }},
			{"scan-recursive-stats", func() { ScanInto(dst, l, opt(withStats), sc) }},
			{"scan-generic", func() { ScanInto(dst, l, opt(Options{Seed: 7, DisableEncoding: true}), sc) }},
			{"rank-encoded", func() { RanksInto(dst, l, opt(Options{Seed: 7}), sc) }},
			{"rank-generic", func() { RanksInto(dst, l, opt(Options{Seed: 7, DisableEncoding: true}), sc) }},
			{"scanop-min", func() {
				minOp := func(a, b int64) int64 {
					if a < b {
						return a
					}
					return b
				}
				ScanOpInto(dst, l, minOp, 1<<62, opt(Options{Seed: 7}), sc)
			}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s-p%d", tc.name, procs), func(t *testing.T) {
				tc.run() // warm the arena for this configuration
				if allocs := testing.AllocsPerRun(3, tc.run); allocs != 0 {
					t.Errorf("%s: %v allocs/op with a warm arena, want 0", tc.name, allocs)
				}
			})
		}
	}
}

// TestParallelSetupDeterministic: the chunked splitter draw depends
// only on the seed, so runs with different worker counts must agree on
// the splitter statistics (sublist count, duplicates) exactly, and on
// the results bit for bit.
func TestParallelSetupDeterministic(t *testing.T) {
	r := rng.New(45)
	l := list.NewRandom(1<<16, r)
	l.RandomValues(-40, 40, r)
	var base Stats
	want := make([]int64, l.Len())
	ScanInto(want, l, Options{Seed: 46, Procs: 1, Stats: &base}, nil)
	for _, p := range []int{2, 3, 4, 8} {
		var st Stats
		got := make([]int64, l.Len())
		ScanInto(got, l, Options{Seed: 46, Procs: p, Stats: &st}, nil)
		equal(t, got, want, "parallel setup scan")
		if st.Sublists != base.Sublists || st.DuplicatesDropped != base.DuplicatesDropped {
			t.Errorf("procs=%d: sublists/dropped = %d/%d, want %d/%d (draw must not depend on Procs)",
				p, st.Sublists, st.DuplicatesDropped, base.Sublists, base.DuplicatesDropped)
		}
	}
	// And repeated runs at the same proc count agree with themselves.
	var a, b Stats
	_ = Ranks(l, Options{Seed: 47, Procs: 4, Stats: &a})
	_ = Ranks(l, Options{Seed: 47, Procs: 4, Stats: &b})
	if a != b {
		t.Errorf("repeated runs diverged: %+v vs %+v", a, b)
	}
}

// TestPhase3OverwritesSuccessorMarkers asserts the invariant the
// drawSplitters comment relies on: the competition markers it leaves
// in out are all overwritten by Phase 3, so a dst pre-filled with a
// sentinel never shows it, and no marker survives into the result, in
// either layout (narrow, and wide via DisableEncoding).
func TestPhase3OverwritesSuccessorMarkers(t *testing.T) {
	const sentinel = int64(-1) << 62
	r := rng.New(48)
	const n = 40000
	l := list.NewRandom(n, r)
	l.RandomValues(-5, 5, r)
	want := serial.Scan(l)
	wantRank := l.Ranks()
	// M is set so the recursion's reduced list runs the child engine.
	requireChildEngine(t, l, Options{Seed: 49, SerialCutoff: 64, M: n / 8})
	for _, de := range []bool{false, true} {
		for _, lw := range []int{1, 0} {
			opt := Options{Seed: 49, LaneWidth: lw, SerialCutoff: 64, M: n / 8, Procs: 2, DisableEncoding: de}
			dst := make([]int64, l.Len())
			for i := range dst {
				dst[i] = sentinel
			}
			ScanInto(dst, l, opt, nil)
			for i, got := range dst {
				if got == sentinel {
					t.Fatalf("generic=%v lanes=%d: dst[%d] never written", de, lw, i)
				}
			}
			equal(t, dst, want, "sentinel scan")
			for i := range dst {
				dst[i] = sentinel
			}
			RanksInto(dst, l, opt, nil)
			for i, got := range dst {
				if got == sentinel {
					t.Fatalf("rank generic=%v lanes=%d: dst[%d] never written", de, lw, i)
				}
			}
			equal(t, dst, wantRank, "sentinel rank")
		}
	}
}

// TestScanOpIntoScratchNonCommutative exercises the wide layout's
// arena path, Phase 2's child engine included, with a non-commutative
// operator, reusing one arena across calls.
func TestScanOpIntoScratchNonCommutative(t *testing.T) {
	packAffine := func(a, b int64) int64 { return a<<32 | (b & 0xffffffff) }
	affine := func(f, g int64) int64 {
		fa, fb := f>>32, int64(int32(f))
		ga, gb := g>>32, int64(int32(g))
		return ((ga * fa) % 9973 << 32) | (((ga*fb + gb) % 9973) & 0xffffffff)
	}
	r := rng.New(50)
	sc := NewScratch()
	for _, n := range []int{3000, 50000, 8000} {
		l := list.NewRandom(n, r)
		for i := range l.Value {
			l.Value[i] = packAffine(int64(r.Intn(7)+1), int64(r.Intn(50)))
		}
		id := packAffine(1, 0)
		want := serial.ScanOp(l, affine, id)
		// M is set so the recursion's reduced list runs the child
		// engine, whose arena is reused across these sizes.
		requireChildEngine(t, l, Options{Seed: 51, SerialCutoff: 64, M: n / 4})
		dst := make([]int64, n)
		ScanOpInto(dst, l, affine, id, Options{Seed: 51, SerialCutoff: 64, M: n / 4, Procs: 3}, sc)
		equal(t, dst, want, "scanop arena")
	}
}
