package core

import (
	"fmt"
	"testing"
	"time"

	"listrank/internal/list"
)

// The malformed-list probes: a 4096-vertex chain 0→1→…→4094 whose end
// closes back into itself — Next[4094] = 4093 (a 2-cycle) or 1000 (a
// long cycle) — so the self-loop tail 4095 is unreachable. Before the
// record sentinel, Phase 1 spun forever in a cycle that held no
// splitter, and the serial Phase 2 walk spun around a cyclic reduced
// list; neither loop polls for cancellation. The probes run at Procs 1:
// on a malformed list two sublists can reach the same vertex, which at
// Procs > 1 is a write race.

// probeN is the probes' length, above the serial cutoff so the sublist
// engine runs.
const probeN = 4096

// probeBacks names each probe by the vertex Next[probeN-2] closes to.
var probeBacks = map[string]int64{"2-cycle": probeN - 3, "long-cycle": 1000}

// probeList builds the probe closing at back, with small int32 values
// so a scan takes the narrow layout.
func probeList(back int64) *list.List {
	l := &list.List{Next: make([]int64, probeN), Value: make([]int64, probeN)}
	for i := range l.Next {
		l.Next[i] = int64(i + 1)
		l.Value[i] = int64(i%7) - 3
	}
	l.Next[probeN-2] = back
	l.Next[probeN-1] = probeN - 1
	return l
}

// probeWatchdog bounds one probe call; a call still running after it
// counts as a hang.
const probeWatchdog = 10 * time.Second

// mustPanicWithin runs f on its own goroutine and fails unless it
// panics within probeWatchdog. A hung f is left running: the test has
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
	case <-time.After(probeWatchdog):
		t.Fatalf("%s: still running after %v (hang)", what, probeWatchdog)
	}
}

// TestMalformedProbesPanic: on both probes, every operator and both
// layouts panic at every seed instead of hanging — rank and int32 scan
// on the narrow word; ScanOp, a scan with a value outside int32 and a
// DisableEncoding rank on the wide pair.
func TestMalformedProbesPanic(t *testing.T) {
	for name, back := range probeBacks {
		l := probeList(back)
		wl := probeList(back)
		wl.Value[7] = 1 << 40
		dst := make([]int64, probeN)
		for seed := uint64(1); seed <= 50; seed++ {
			opt := Options{Seed: seed, Procs: 1}
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
				mustPanicWithin(t, fmt.Sprintf("%s %s seed %d", name, what, seed), run)
			}
		}
	}
}

// TestSerialPhase2GuardsCycle: on the long-cycle probe, the wide
// layout under addition (a DisableEncoding rank) and under an operator
// (ScanOp) must panic instead of spinning. The record sentinel fires
// in Phase 1; behind it, the serial Phase 2 walk still panics after k
// steps on a reduced list with no tail sublist, which is what a chase
// without a revisit guard hands it.
func TestSerialPhase2GuardsCycle(t *testing.T) {
	l := probeList(probeBacks["long-cycle"])
	dst := make([]int64, probeN)
	for seed := uint64(1); seed <= 50; seed++ {
		opt := Options{Seed: seed, Procs: 1, DisableEncoding: true}
		mustPanicWithin(t, fmt.Sprintf("generic rank seed %d", seed), func() {
			RanksInto(dst, l, opt, nil)
		})
		mustPanicWithin(t, fmt.Sprintf("scanop seed %d", seed), func() {
			ScanOpInto(dst, l, func(a, b int64) int64 { return max(a, b) }, 0, opt, nil)
		})
	}
}
