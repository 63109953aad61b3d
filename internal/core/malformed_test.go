package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"listrank/internal/list"
	"listrank/internal/rng"
)

// The malformed-list probes: a 4096-vertex chain 0→1→…→4094 whose end
// closes back into itself — Next[4094] = 4093 (a 2-cycle) or 1000 (a
// long cycle) — so the self-loop tail 4095 is unreachable. Before the
// record sentinel, Phase 1 spun forever in a cycle that held no
// splitter, and the serial Phase 2 walk spun around a cyclic reduced
// list; before the serial walk's n-link guard, a list at or below the
// serial cutoff spun in the walk. None of these loops polls for
// cancellation. These probes run at Procs 1: on them two sublists can
// reach the same vertex, which at Procs > 1 is a write race.
//
// The chain-plus-cycle probe instead reaches the tail early: the chain
// 0→…→2047 links to the tail 4095, and 2048…4094 form a cycle off its
// path. Every link is in range and there is one self-loop. The walk
// reaches the tail after 2048 links; the engine's cycle sublists form
// a cycle of the reduced list that Phase 2's walk never reaches, and
// both used to return with the cycle's values unwritten. No vertex of
// this shape lies in two sublists, so it also runs at Procs 2, which
// -race shows is race-free.

// probeN is the probes' length.
const probeN = 4096

// probeSides runs each probe on both sides of the serial cutoff: below
// probeN the sublist engine and its record sentinel run, at probeN the
// serial walk and its n-link guard. The recursive side's reduced list
// is longer than its cutoff, so Phase 2 runs the child engine.
var probeSides = map[string]Options{
	"engine":    {SerialCutoff: probeN - 1},
	"serial":    {SerialCutoff: probeN},
	"recursive": {SerialCutoff: 64, M: probeN / 4},
}

// probes names each probe by the vertex Next[probeN-2] closes to,
// whether the vertex before it exits to the tail, and the Procs it
// runs at.
var probes = map[string]struct {
	back  int64
	exit  bool
	procs []int
}{
	"2-cycle":          {probeN - 3, false, []int{1}},
	"long-cycle":       {1000, false, []int{1}},
	"chain-plus-cycle": {probeN / 2, true, []int{1, 2}},
}

// probeList builds the probe closing at back, exiting to the tail
// from back−1 if exit, with small int32 values so a scan takes the
// narrow layout.
func probeList(back int64, exit bool) *list.List {
	l := &list.List{Next: make([]int64, probeN), Value: make([]int64, probeN)}
	for i := range l.Next {
		l.Next[i] = int64(i + 1)
		l.Value[i] = int64(i%7) - 3
	}
	l.Next[probeN-2] = back
	l.Next[probeN-1] = probeN - 1
	if exit {
		l.Next[back-1] = probeN - 1
	}
	return l
}

// probeWatchdog bounds one probe call; a call still running after it
// counts as a hang.
const probeWatchdog = 10 * time.Second

// mustPanicWithin runs f on its own goroutine and fails unless it
// panics with list.ErrNotList (or, at Procs > 1, a fan-out's wrapper
// of it) within probeWatchdog. A hung f is left running: the test has
// failed and the process exits with it.
func mustPanicWithin(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatalf("%s: completed on a malformed list instead of panicking", what)
		}
		if err, ok := r.(error); !ok || !errors.Is(err, list.ErrNotList) {
			t.Fatalf("%s: panicked with %v, want list.ErrNotList", what, r)
		}
	case <-time.After(probeWatchdog):
		t.Fatalf("%s: still running after %v (hang)", what, probeWatchdog)
	}
}

// TestMalformedProbesPanic: on every probe, on both sides of the
// serial cutoff and with a recursive Phase 2, every operator and both
// layouts panic at every seed instead of hanging or returning — rank
// and int32 scan on the narrow word; ScanOp, a scan with a value
// outside int32 and a DisableEncoding rank on the wide pair.
func TestMalformedProbesPanic(t *testing.T) {
	for name, pr := range probes {
		l := probeList(pr.back, pr.exit)
		wl := probeList(pr.back, pr.exit)
		wl.Value[7] = 1 << 40
		dst := make([]int64, probeN)
		for side, base := range probeSides {
			for _, procs := range pr.procs {
				for seed := uint64(1); seed <= 50; seed++ {
					opt := base
					opt.Seed, opt.Procs = seed, procs
					for what, run := range map[string]func(){
						"rank":      func() { RanksInto(dst, l, opt, nil) },
						"scan":      func() { ScanInto(dst, l, opt, nil) },
						"scanop":    func() { ScanOpInto(dst, l, func(a, b int64) int64 { return max(a, b) }, 0, opt, nil) },
						"wide-scan": func() { ScanInto(dst, wl, opt, nil) },
						"wide-rank": func() {
							wide := opt
							wide.DisableEncoding = true
							RanksInto(dst, l, wide, nil)
						},
					} {
						mustPanicWithin(t, fmt.Sprintf("%s %s procs %d %s seed %d", name, side, procs, what, seed), run)
					}
				}
			}
		}
	}
}

// TestSerialPhase2GuardsCycle: on the long-cycle probe, the wide
// layout under addition (a DisableEncoding rank) and under an operator
// (ScanOp) must panic instead of spinning. The record sentinel fires
// in Phase 1; behind it, Phase 2's serial walk still panics after k
// links on a reduced list with no tail sublist, which is what a chase
// without a revisit guard hands it.
func TestSerialPhase2GuardsCycle(t *testing.T) {
	pr := probes["long-cycle"]
	l := probeList(pr.back, pr.exit)
	dst := make([]int64, probeN)
	for seed := uint64(1); seed <= 50; seed++ {
		opt := probeSides["engine"]
		opt.Seed, opt.Procs, opt.DisableEncoding = seed, 1, true
		mustPanicWithin(t, fmt.Sprintf("generic rank seed %d", seed), func() {
			RanksInto(dst, l, opt, nil)
		})
		mustPanicWithin(t, fmt.Sprintf("scanop seed %d", seed), func() {
			ScanOpInto(dst, l, func(a, b int64) int64 { return max(a, b) }, 0, opt, nil)
		})
	}
}

// FuzzMalformedNeverHangs: a list of n ∈ [2, 4·defaultSerialCutoff]
// vertices in a fuzz-chosen shape, with one fuzz-chosen mutation, must
// make a rank, a scan and a ScanOp at Procs 1 panic within the
// watchdog, on both sides of the serial cutoff. The redirect mutation
// points the link out of the vertex at rank i at the vertex at an
// earlier rank j: that closes a cycle and strands the vertex at rank
// i+1, which nothing links to any more (or, when i is the tail, leaves
// no self-loop at all), so the serial walk must stop after n links and
// the engine must hit its record sentinel or its tail check. The exit
// mutation (n ≥ 3) links the vertex at rank i to the tail and closes
// ranks i+1…n−2 into a cycle off the path, so the walk and Phase 2's
// walk must refuse a tail reached before their last link.
func FuzzMalformedNeverHangs(f *testing.F) {
	f.Add(uint16(998), uint8(0), false, uint16(997), uint16(996), uint64(1)) // the 2-cycle at n = 1000
	f.Add(uint16(probeN-2), uint8(0), false, uint16(probeN-2), uint16(1000), uint64(2))
	f.Add(uint16(4*defaultSerialCutoff), uint8(1), false, uint16(9000), uint16(3), uint64(3))
	f.Add(uint16(0), uint8(2), false, uint16(0), uint16(0), uint64(4)) // n = 2: tail back to head
	f.Add(uint16(defaultSerialCutoff), uint8(3), false, uint16(0xffff), uint16(7), uint64(5))
	// n = 16384, the engine: the chain-plus-cycle probe, ranks 8192…16382 a cycle.
	f.Add(uint16(4*defaultSerialCutoff-2), uint8(1), true, uint16(8191), uint16(0), uint64(6))
	f.Fuzz(func(t *testing.T, nRaw uint16, shape uint8, exit bool, iRaw, jRaw uint16, seed uint64) {
		n := 2 + int(nRaw)%(4*defaultSerialCutoff-1)
		r := rng.New(seed)
		var l *list.List
		switch shape % 4 {
		case 0:
			l = list.NewRandom(n, r)
		case 1:
			l = list.NewOrdered(n)
		case 2:
			l = list.NewReversed(n)
		default:
			l = list.NewBlocked(n, 1+int(seed%64), r)
		}
		l.RandomValues(-5, 5, r)
		at := make([]int64, n) // at[rank] = vertex
		for v, rk := range l.Ranks() {
			at[rk] = int64(v)
		}
		var what string
		if exit && n >= 3 {
			i := int(iRaw) % (n - 2)
			l.Next[at[i]] = at[n-1]
			l.Next[at[n-2]] = at[i+1]
			what = fmt.Sprintf("n=%d shape=%d rank %d→tail, %d…%d a cycle", n, shape%4, i, i+1, n-2)
		} else {
			i := 1 + int(iRaw)%(n-1)
			j := int(jRaw) % i
			l.Next[at[i]] = at[j]
			what = fmt.Sprintf("n=%d shape=%d rank %d→%d", n, shape%4, i, j)
		}
		dst := make([]int64, n)
		opt := Options{Seed: seed, Procs: 1}
		mustPanicWithin(t, what+" rank", func() { RanksInto(dst, l, opt, nil) })
		mustPanicWithin(t, what+" scan", func() { ScanInto(dst, l, opt, nil) })
		mustPanicWithin(t, what+" scanop", func() {
			ScanOpInto(dst, l, func(a, b int64) int64 { return max(a, b) }, 0, opt, nil)
		})
	})
}
