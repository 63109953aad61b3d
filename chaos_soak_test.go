//go:build chaos

package listrank

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"listrank/internal/chaos"
	"listrank/internal/rng"
)

// TestChaosSoak is the crash-safety acceptance test (`go test -tags
// chaos -race -run TestChaosSoak`): a server under open-throttle mixed
// traffic — good requests, poisoned lists, pre-expired and racing
// deadlines, client cancellations, queue-full bursts against a small
// Reject-mode queue, handle requests through the reorder cache with
// concurrent value mutation + Invalidate — while the chaos harness
// injects panics into pool worker bodies, engine phase boundaries and
// kernel chunk strips, and stalls workers. It must end with every ticket completed (no Wait
// hangs — the test would time out), the accounting identity
//
//	Submitted = Served + Rejected + Expired + Poisoned + Shed
//
// exactly equal to the client-side tallies, at least 1% of requests
// hit by injected panics and at least 5% expired, and no goroutine
// leaked past Close.
func TestChaosSoak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewServer(ServerOptions{
		Procs:      4,
		BinBounds:  []int{1 << 12},
		QueueDepth: 8, // small enough that the burst traffic overflows it
		Reject:     true,
		WarmSizes:  []int{1 << 12, 20000},
		// Cache on the first serve so the handle traffic spends most of
		// its time on the warm-hit path, with builds racing the chaos.
		ReorderAfter: 1,
	})

	// Arm after NewServer so warming runs clean. Rates are tuned so
	// injected panics comfortably exceed 1% of requests without
	// swamping the served population.
	chaos.ArmPanic(chaos.PointChunk, 150)  // kernel strip, on workers
	chaos.ArmPanic(chaos.PointPhase2, 40)  // orchestrator, sublist path
	chaos.ArmPanic(chaos.PointWorker, 600) // pool worker body — exercises serveBatch stranding
	chaos.ArmDelay(chaos.PointPhase1, 100*time.Microsecond, 25)
	defer chaos.Disarm()

	const (
		submitters   = 8
		perSubmitter = 1500 // ≥ 12000 requests total (bursts add more)
	)
	var submitted, served, rejected, expired, poisoned, other atomic.Int64
	var wg sync.WaitGroup
	classify := func(err error) {
		switch {
		case err == nil:
			served.Add(1)
		case errors.Is(err, ErrBackpressure) || errors.Is(err, ErrBadRequest) || errors.Is(err, ErrServerClosed):
			rejected.Add(1)
		case errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrCanceled):
			expired.Add(1)
		case errors.Is(err, ErrPanic):
			poisoned.Add(1)
		default:
			other.Add(1)
			t.Errorf("unclassifiable error: %v", err)
		}
	}
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g)*0x9e3779b97f4a7c15 + 1)
			// Each submitter owns its lists (one request in flight per
			// submitter). Sizes straddle the serial cutoff and the bin
			// bound so serial, sublist-coalesced and sublist-parallel
			// paths all see traffic.
			good := []*List{
				NewRandomList(256, uint64(g)+1),
				NewRandomList(2048, uint64(g)+2),
				NewRandomList(4096, uint64(g)+3),
				NewRandomList(20000, uint64(g)+4),
			}
			want := make([][]int64, len(good))
			for i, l := range good {
				want[i] = serverRef(OpRank, l)
			}
			poison := NewRandomList(256, uint64(g)+5)
			poison.Next[poison.Head] = int64(poison.Len()) + 3
			// Handles over the same private lists: requests from this
			// submitter are serialized by Wait, so mutating a list at
			// loop top is always at quiescence for its handle.
			handles := make([]*Handle, len(good))
			for i, l := range good {
				handles[i] = s.Register(l)
			}
			burst := make([]*Ticket, 12)
			for i := 0; i < perSubmitter; i++ {
				req := Request{Op: OpRank}
				kind := r.Intn(100)
				gi := r.Intn(len(good))
				var wantRanks []int64
				switch {
				case kind < 6: // pre-expired deadline: deterministic expiry
					req.List = good[gi]
					req.Deadline = time.Now().Add(-time.Millisecond)
				case kind < 8: // racing deadline: expires queued or mid-run, or wins
					req.List = good[gi]
					req.Deadline = time.Now().Add(100 * time.Microsecond)
				case kind < 10: // poisoned input
					req.List = poison
				case kind < 12: // queue-full burst against the small queue
					// Back-to-back submissions with no intervening Wait;
					// the engines only read the list, so the burst can
					// share one small list (as the existing backpressure
					// tests do).
					for b := range burst {
						burst[b] = s.Submit(Request{Op: OpRank, List: good[0]})
						submitted.Add(1)
					}
					for _, tk := range burst {
						_, err := tk.Wait()
						classify(err)
					}
					continue
				case kind < 14: // direct-List request, canceled below
					req.List = good[gi]
					wantRanks = want[gi]
				case kind < 30: // handle request through the reorder cache
					req.Handle = handles[gi]
					wantRanks = want[gi]
					if kind == 14 {
						// Mutate values at quiescence and bump the version:
						// the stale layout must never serve again. Ranks
						// don't depend on values, so want stays valid.
						good[gi].Value[r.Intn(good[gi].Len())] = int64(r.Intn(1000))
						handles[gi].Invalidate()
					}
				default:
					req.List = good[gi]
					wantRanks = want[gi]
				}
				tk := s.Submit(req)
				submitted.Add(1)
				if kind >= 12 && kind < 14 { // client cancellation race
					tk.Cancel()
					wantRanks = nil
				}
				got, err := tk.Wait()
				classify(err)
				if err == nil && wantRanks != nil && i%64 == 0 {
					for v := range wantRanks {
						if got[v] != wantRanks[v] {
							t.Errorf("served request corrupted: rank[%d] = %d, want %d", v, got[v], wantRanks[v])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()

	st := s.Stats()
	total := submitted.Load()
	t.Logf("soak: submitted=%d served=%d rejected=%d expired=%d poisoned=%d injected(worker=%d phase2=%d chunk=%d) delays=%d reorder(hits=%d misses=%d builds=%d evictions=%d)",
		st.Submitted, st.Served, st.Rejected, st.Expired, st.Poisoned,
		chaos.Fired(chaos.PointWorker), chaos.Fired(chaos.PointPhase2), chaos.Fired(chaos.PointChunk),
		chaos.Fired(chaos.PointPhase1),
		st.ReorderHits, st.ReorderMisses, st.ReorderBuilds, st.ReorderEvictions)

	if other.Load() != 0 {
		t.Fatalf("%d tickets completed with unclassifiable errors", other.Load())
	}
	if total < 10000 {
		t.Errorf("soak submitted only %d requests, want ≥ 10000", total)
	}
	if st.Submitted != total {
		t.Errorf("submitted %d, want %d (client tally)", st.Submitted, total)
	}
	if st.Submitted != st.Served+st.Rejected+st.Expired+st.Poisoned+st.Shed {
		t.Errorf("identity violated: submitted %d != served %d + rejected %d + expired %d + poisoned %d + shed %d",
			st.Submitted, st.Served, st.Rejected, st.Expired, st.Poisoned, st.Shed)
	}
	// Server-side counters must agree exactly with what clients saw.
	if st.Served != served.Load() || st.Rejected != rejected.Load() ||
		st.Expired != expired.Load() || st.Poisoned != poisoned.Load() {
		t.Errorf("stats diverge from client tallies: server (%d %d %d %d), clients (%d %d %d %d)",
			st.Served, st.Rejected, st.Expired, st.Poisoned,
			served.Load(), rejected.Load(), expired.Load(), poisoned.Load())
	}
	if inj := chaos.Fired(chaos.PointWorker) + chaos.Fired(chaos.PointPhase2) + chaos.Fired(chaos.PointChunk); inj < total/100 {
		t.Errorf("injected panics %d < 1%% of %d requests", inj, total)
	}
	if st.Expired < total*5/100 {
		t.Errorf("expired %d < 5%% of %d requests", st.Expired, total)
	}
	// The handle traffic must actually have exercised the cache: layouts
	// built (some racing injected panics) and warm hits served.
	if st.ReorderBuilds == 0 || st.ReorderHits == 0 {
		t.Errorf("reorder cache unexercised: builds=%d hits=%d", st.ReorderBuilds, st.ReorderHits)
	}

	// No goroutine may outlive Close: dispatchers, pool workers and
	// engine fan-outs must all have unwound despite the injected faults.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before server, %d after Close", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestChaosSoakSegmented soaks cross-shard segmented dispatch under
// the same injected faults: parents fan sub-requests across a small
// Reject-mode fleet while the chaos harness panics pool workers
// (striking coalesced sub-request batches), engine phase boundaries
// and kernel strips (striking the orchestrator's inline boundary
// rank). Every parent ticket must complete in exactly one failure
// domain, the accounting identity must balance with the sub-request
// traffic folded in, served results must stay exact, and nothing —
// orchestrator goroutines included — may outlive Close.
func TestChaosSoakSegmented(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewServer(ServerOptions{
		Procs:       4,
		BinBounds:   []int{1 << 12},
		QueueDepth:  16,
		Reject:      true,
		AutoSegment: 1 << 12, // 20k-element lists auto-split into 5 segments
		WarmSizes:   []int{1 << 12, 20000},
	})
	chaos.ArmPanic(chaos.PointChunk, 200)
	chaos.ArmPanic(chaos.PointPhase2, 60)
	chaos.ArmPanic(chaos.PointWorker, 800)
	chaos.ArmDelay(chaos.PointPhase1, 100*time.Microsecond, 25)
	defer chaos.Disarm()

	const (
		submitters   = 4
		perSubmitter = 400
	)
	var submitted, served, rejected, expired, poisoned, other atomic.Int64
	// Parents guaranteed to reach segmented dispatch (no deadline that
	// could expire them at admission) vs. all segmentable parents.
	var segSure, segMaybe atomic.Int64
	var wg sync.WaitGroup
	classify := func(err error) {
		switch {
		case err == nil:
			served.Add(1)
		case errors.Is(err, ErrBackpressure) || errors.Is(err, ErrBadRequest) || errors.Is(err, ErrServerClosed):
			rejected.Add(1)
		case errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrCanceled):
			expired.Add(1)
		case errors.Is(err, ErrPanic):
			poisoned.Add(1)
		default:
			other.Add(1)
			t.Errorf("unclassifiable error: %v", err)
		}
	}
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g)*0x517cc1b727220a95 + 3)
			good := NewRandomList(20000, uint64(g)+21)
			want := serverRef(OpRank, good)
			poison := NewOrderedList(20000)
			poison.Next[100] = 500 // orphans 101..499 inside segment 0
			small := NewRandomList(600, uint64(g)+22)
			for i := 0; i < perSubmitter; i++ {
				req := Request{Op: OpRank}
				kind := r.Intn(100)
				var wantRanks []int64
				switch {
				case kind < 10: // racing deadline across the two-phase fan
					req.List = good
					req.Segments = 2 + r.Intn(5)
					req.Deadline = time.Now().Add(time.Duration(r.Intn(3000)) * time.Microsecond)
					segMaybe.Add(1)
				case kind < 20: // poisoned segment sub-request
					req.List = poison
					req.Segments = 4
					segSure.Add(1)
					segMaybe.Add(1)
				case kind < 30: // client cancellation race
					req.List = good
					req.Segments = 4
					segSure.Add(1)
					segMaybe.Add(1)
				case kind < 40: // small monolithic chaff on the same fleet
					req.List = small
				default: // healthy segmented traffic, explicit or auto-split
					req.List = good
					if kind < 70 {
						req.Segments = 2 + r.Intn(5)
					}
					wantRanks = want
					segSure.Add(1)
					segMaybe.Add(1)
				}
				tk := s.Submit(req)
				submitted.Add(1)
				if kind >= 20 && kind < 30 {
					tk.Cancel()
					wantRanks = nil
				}
				got, err := tk.Wait()
				classify(err)
				if err == nil && wantRanks != nil && i%32 == 0 {
					for v := range wantRanks {
						if got[v] != wantRanks[v] {
							t.Errorf("served segmented request corrupted: rank[%d] = %d, want %d", v, got[v], wantRanks[v])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()

	st := s.Stats()
	t.Logf("segmented soak: submitted=%d served=%d rejected=%d expired=%d poisoned=%d segmented=%d subrequests=%d injected(worker=%d phase2=%d chunk=%d)",
		st.Submitted, st.Served, st.Rejected, st.Expired, st.Poisoned, st.Segmented, st.SegSubmits,
		chaos.Fired(chaos.PointWorker), chaos.Fired(chaos.PointPhase2), chaos.Fired(chaos.PointChunk))

	if other.Load() != 0 {
		t.Fatalf("%d tickets completed with unclassifiable errors", other.Load())
	}
	// The server-side identity must balance exactly even though the
	// sub-request traffic (including SubmitTimeout retries under
	// backpressure) is invisible to the clients.
	if st.Submitted != st.Served+st.Rejected+st.Expired+st.Poisoned+st.Shed {
		t.Errorf("identity violated: submitted %d != served %d + rejected %d + expired %d + poisoned %d + shed %d",
			st.Submitted, st.Served, st.Rejected, st.Expired, st.Poisoned, st.Shed)
	}
	// Every deadline-free segmentable parent was diverted; deadline
	// parents divert only if they survive admission.
	if st.Segmented < segSure.Load() || st.Segmented > segMaybe.Load() {
		t.Errorf("Segmented = %d, want within [%d, %d]", st.Segmented, segSure.Load(), segMaybe.Load())
	}
	if st.SegSubmits < 2*st.Segmented {
		t.Errorf("SegSubmits = %d for %d parents; every parent fans at least two sub-requests", st.SegSubmits, st.Segmented)
	}
	if poisoned.Load() == 0 {
		t.Error("no parent was poisoned under injected faults + poisoned lists")
	}
	if served.Load() == 0 {
		t.Error("no segmented request was served")
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before server, %d after Close", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
