package listrank

import (
	"context"
	"errors"
	"testing"
	"time"
)

// checkIdentity asserts the ServerStats accounting identity: every
// submission landed in exactly one bucket.
func checkIdentity(t *testing.T, s *Server) {
	t.Helper()
	st := s.Stats()
	if st.Submitted != st.Served+st.Rejected+st.Expired+st.Poisoned+st.Shed {
		t.Errorf("stats identity violated: submitted %d != served %d + rejected %d + expired %d + poisoned %d + shed %d",
			st.Submitted, st.Served, st.Rejected, st.Expired, st.Poisoned, st.Shed)
	}
}

// checkIntact asserts a canceled or failed request left its list
// un-mutated: still a valid chain, unit values intact.
func checkIntact(t *testing.T, l *List) {
	t.Helper()
	if err := l.Validate(); err != nil {
		t.Fatalf("list not restored: %v", err)
	}
	for i, v := range l.Value {
		if v != 1 {
			t.Fatalf("Value[%d] = %d, want 1 (restored)", i, v)
		}
	}
}

// TestServerAdmissionExpiry: a request that is already dead at Submit
// — deadline passed or context done — fails with the matching error
// without ever occupying a queue slot or an engine.
func TestServerAdmissionExpiry(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 1})
	defer s.Close()
	l := NewRandomList(1000, 3)

	if _, err := s.Submit(Request{Op: OpRank, List: l, Deadline: time.Now().Add(-time.Second)}).Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("expired deadline at admission: %v, want ErrDeadlineExceeded", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(Request{Op: OpRank, List: l, Ctx: ctx}).Wait(); !errors.Is(err, ErrCanceled) {
		t.Errorf("done context at admission: %v, want ErrCanceled", err)
	}
	st := s.Stats()
	if st.Expired != 2 || st.Dispatches != 0 {
		t.Errorf("stats: expired %d dispatches %d, want 2 and 0", st.Expired, st.Dispatches)
	}
	checkIdentity(t, s)

	// The server (and a recycled ticket) still serves a live request.
	want := serverRef(OpRank, l)
	got, err := s.Rank(l, nil).Wait()
	if err != nil {
		t.Fatalf("request after expiries: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("rank[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	checkIdentity(t, s)
}

// TestServerDeadlineWhileQueued: a short-deadline request stuck behind
// a slow one expires without running (or is abandoned at its first
// checkpoint if the race goes the other way); either way Wait reports
// ErrDeadlineExceeded and the list is untouched.
func TestServerDeadlineWhileQueued(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 1, BinBounds: []int{1 << 22}, QueueDepth: 64})
	defer s.Close()
	big := NewRandomList(1<<21, 5)
	slow := s.Submit(Request{Op: OpRank, List: big})
	l := NewRandomList(4000, 6)
	tk := s.Submit(Request{Op: OpRank, List: l, Deadline: time.Now().Add(2 * time.Millisecond)})
	if _, err := tk.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("queued past deadline: %v, want ErrDeadlineExceeded", err)
	}
	checkIntact(t, l)
	if _, err := slow.Wait(); err != nil {
		t.Fatalf("slow request: %v", err)
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Errorf("expired %d, want 1", st.Expired)
	}
	checkIdentity(t, s)
}

// TestServerTicketCancel: Cancel withdraws a queued request
// deterministically (it is parked behind a slow one) and a mid-run
// request cooperatively; the canceled request's list is restored and
// the server keeps serving.
func TestServerTicketCancel(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 1, BinBounds: []int{1 << 22}, QueueDepth: 64})
	defer s.Close()

	// Queued: canceled before the dispatcher can reach it.
	big := NewRandomList(1<<21, 5)
	slow := s.Submit(Request{Op: OpRank, List: big})
	l := NewRandomList(4000, 7)
	tk := s.Submit(Request{Op: OpRank, List: l})
	tk.Cancel()
	if _, err := tk.Wait(); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled while queued: %v, want ErrCanceled", err)
	}
	checkIntact(t, l)
	if _, err := slow.Wait(); err != nil {
		t.Fatalf("slow request: %v", err)
	}

	// Mid-run: the trip lands while the engine is chasing; the run
	// either finishes first (fine) or must unwind as ErrCanceled.
	tk = s.Submit(Request{Op: OpRank, List: big})
	time.Sleep(500 * time.Microsecond)
	tk.Cancel()
	if _, err := tk.Wait(); err != nil && !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled mid-run: %v, want nil or ErrCanceled", err)
	}
	checkIntact(t, big)
	checkIdentity(t, s)
}

// TestServerPoisonContained: a poisoned list (out-of-range link) in
// the middle of a coalesced batch fails its own ticket with an
// ErrPanic-wrapped error preserving the original panic message — and
// nothing else: its batch peers are served correctly and the shard's
// pool and engines stay usable.
func TestServerPoisonContained(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2, BinBounds: []int{1 << 22}, QueueDepth: 256})
	defer s.Close()
	// Pin the shard's dispatcher so the burst coalesces into one batch.
	big := NewRandomList(1<<21, 5)
	slow := s.Submit(Request{Op: OpRank, List: big})

	const burst = 16
	poisonAt := burst / 2
	tickets := make([]*Ticket, burst)
	lists := make([]*List, burst)
	for i := range tickets {
		lists[i] = NewRandomList(300, uint64(i)+11)
		if i == poisonAt {
			lists[i].Next[lists[i].Head] = int64(lists[i].Len()) + 7
		}
		tickets[i] = s.Rank(lists[i], nil)
	}
	for i, tk := range tickets {
		got, err := tk.Wait()
		if i == poisonAt {
			if !errors.Is(err, ErrPanic) {
				t.Fatalf("poisoned request: %v, want ErrPanic", err)
			}
			if err.Error() == ErrPanic.Error() {
				t.Fatalf("poisoned request lost the original panic message: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("batch peer %d of poisoned request failed: %v", i, err)
		}
		want := serverRef(OpRank, lists[i])
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("batch peer %d corrupted: rank[%d] = %d, want %d", i, v, got[v], want[v])
			}
		}
	}
	if _, err := slow.Wait(); err != nil {
		t.Fatalf("slow request: %v", err)
	}

	// The shard that contained the fault still serves.
	l := NewRandomList(500, 42)
	if _, err := s.Rank(l, nil).Wait(); err != nil {
		t.Fatalf("request after contained fault: %v", err)
	}
	st := s.Stats()
	if st.Poisoned != 1 {
		t.Errorf("poisoned %d, want 1", st.Poisoned)
	}
	checkIdentity(t, s)
}

// TestServerValidateInputs: the server validates a list by ranking it,
// with no check in front of the engine. A list with an out-of-range
// link, a second self-loop or an out-of-range head is refused as
// Poisoned (ErrPanic), never served and never fatal to the process,
// and its shard then serves a valid list normally.
func TestServerValidateInputs(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2})
	defer s.Close()

	for _, damage := range []struct {
		name string
		do   func(l *List)
	}{
		{"out-of-range link", func(l *List) { l.Next[l.Head] = -1 }},
		{"two self-loops", func(l *List) { l.Next[l.Head] = l.Head }},
		{"out-of-range head", func(l *List) { l.Head = 1000 }},
	} {
		for _, op := range []Op{OpRank, OpScan} {
			l := NewRandomList(1000, 3)
			damage.do(l)
			if _, err := s.Submit(Request{Op: op, List: l}).Wait(); !errors.Is(err, ErrPanic) {
				t.Errorf("%s, op %v: %v, want ErrPanic", damage.name, op, err)
			}
		}
	}

	good := NewRandomList(1000, 6)
	want := serverRef(OpRank, good)
	got, err := s.Rank(good, nil).Wait()
	if err != nil {
		t.Fatalf("valid list after refused ones: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("rank[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	st := s.Stats()
	if st.Poisoned != 6 || st.Served != 1 || st.Rejected != 0 {
		t.Errorf("stats: poisoned %d served %d rejected %d, want 6, 1 and 0", st.Poisoned, st.Served, st.Rejected)
	}
	checkIdentity(t, s)
}

// TestServerMalformedProbesPoisoned: the malformed-list probes of
// internal/core's TestMalformedProbesPanic — a chain whose end closes
// into a 2-cycle or a long cycle, leaving the self-loop tail
// unreachable — used to spin forever, wedging their shard: first the
// sublist engine, then the serial walk that lists at or below the
// serial cutoff and every Algorithm Serial request take (a 1000-vertex
// rank ignored its deadline and was still running seconds later,
// because the walk polls none). Served without input validation, each
// must now end ErrPanic (poisoned) within the watchdog bound — rank,
// scan and a generic-operator scan alike, on both sides of the cutoff
// — with the accounting identity exact. The engine rows' seeds are
// ones at which it used to hang. Procs 1: at Procs > 1 two sublists
// reaching one vertex of a malformed list race on its record. The
// exit rows are the chain-plus-cycle probe, whose chain reaches the
// self-loop tail early and leaves a cycle off the path: the serial
// walk used to return on reaching the tail, and so did the engine's
// Phase 2 on the reduced list, whose cycle sublists it never reached,
// and the request was reported served with the cycle's ranks
// unwritten or wrong.
func TestServerMalformedProbesPoisoned(t *testing.T) {
	const big = 1 << 14 // above the engine's serial cutoff
	probe := func(n int, back int64, exit bool) *List {
		l := &List{Next: make([]int64, n), Value: make([]int64, n)}
		for i := range l.Next {
			l.Next[i] = int64(i + 1)
			l.Value[i] = int64(i%7) - 3
		}
		l.Next[n-2] = back
		l.Next[n-1] = int64(n - 1)
		if exit {
			l.Next[back-1] = int64(n - 1)
		}
		return l
	}
	s := NewServer(ServerOptions{Procs: 1})
	var tickets []*Ticket
	for _, pr := range []struct {
		n        int
		back     int64
		exit     bool
		alg      Algorithm
		seed     uint64
		deadline time.Duration
	}{
		{big, big - 3, false, Sublist, 3, 0},
		{big, 1000, false, Sublist, 1, 0},
		{1000, 997, false, Sublist, 0, time.Second},
		{1000, 997, false, Serial, 0, time.Second},
		{big, big - 3, false, Serial, 0, time.Second},
		{1000, 500, true, Sublist, 0, time.Second},
		{1000, 500, true, Serial, 0, time.Second},
		{big, big / 2, true, Serial, 0, time.Second},
		{big, big / 2, true, Sublist, 1, 0},
		{1 << 16, 1 << 15, true, Sublist, 2, 0},
	} {
		for _, op := range []Op{OpRank, OpScan, OpScanOp} {
			req := Request{Op: op, List: probe(pr.n, pr.back, pr.exit), Opt: Options{Algorithm: pr.alg, Seed: pr.seed}}
			if pr.deadline > 0 {
				req.Deadline = time.Now().Add(pr.deadline)
			}
			if op == OpScanOp {
				req.ScanOp = func(a, b int64) int64 { return max(a, b) }
			}
			tickets = append(tickets, s.Submit(req))
		}
	}
	for i, tk := range tickets {
		done := make(chan error, 1)
		go func(tk *Ticket) {
			_, err := tk.Wait()
			done <- err
		}(tk)
		select {
		case err := <-done:
			if !errors.Is(err, ErrPanic) {
				t.Fatalf("probe request %d: %v, want ErrPanic", i, err)
			}
		case <-time.After(10 * time.Second):
			// Close would wait on the wedged shard; leave the server.
			t.Fatalf("probe request %d still running after 10s (hang)", i)
		}
	}
	if st := s.Stats(); st.Poisoned != int64(len(tickets)) || st.Served != 0 {
		t.Errorf("poisoned %d, served %d, want %d and 0", st.Poisoned, st.Served, len(tickets))
	}
	checkIdentity(t, s)
	s.Close()
}
