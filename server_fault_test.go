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

// checkRestored asserts a canceled or failed request left its list
// un-mutated: still a valid chain, unit values intact.
func checkListRestored(t *testing.T, l *List) {
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
	checkListRestored(t, l)
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
	checkListRestored(t, l)
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
	checkListRestored(t, big)
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

// TestServerValidateInputs: with ValidateInputs on, structurally
// corrupt lists are rejected up front with ErrBadRequest — never run,
// never panic — while valid lists serve normally.
func TestServerValidateInputs(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2, ValidateInputs: true})
	defer s.Close()

	oob := NewRandomList(1000, 3)
	oob.Next[oob.Head] = -1
	if _, err := s.Rank(oob, nil).Wait(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("out-of-range link: %v, want ErrBadRequest", err)
	}
	twoTails := NewRandomList(1000, 4)
	twoTails.Next[twoTails.Head] = twoTails.Head // second self-loop
	if _, err := s.Rank(twoTails, nil).Wait(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("two self-loops: %v, want ErrBadRequest", err)
	}
	badHead := NewRandomList(1000, 5)
	badHead.Head = 1000
	if _, err := s.Rank(badHead, nil).Wait(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("out-of-range head: %v, want ErrBadRequest", err)
	}

	good := NewRandomList(1000, 6)
	want := serverRef(OpRank, good)
	got, err := s.Rank(good, nil).Wait()
	if err != nil {
		t.Fatalf("valid list under ValidateInputs: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("rank[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	st := s.Stats()
	if st.Rejected != 3 || st.Poisoned != 0 {
		t.Errorf("stats: rejected %d poisoned %d, want 3 and 0", st.Rejected, st.Poisoned)
	}
	checkIdentity(t, s)
}

// TestSubmitTimeout: the retry-with-backoff helper for Reject-mode
// clients — admitted when space frees up within the timeout, a clean
// ErrBackpressure when it does not, and immediate pass-through of
// terminal errors.
func TestSubmitTimeout(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 1, BinBounds: []int{1 << 23}, QueueDepth: 1, Reject: true})
	defer s.Close()

	// Terminal errors return immediately, ticket already consumed.
	if tk, err := s.SubmitTimeout(Request{Op: OpRank, List: nil}, time.Second); tk != nil || !errors.Is(err, ErrBadRequest) {
		t.Errorf("nil list: (%v, %v), want (nil, ErrBadRequest)", tk, err)
	}

	// Pin the shard and fill its depth-1 queue; a short-timeout
	// submission must give up with ErrBackpressure.
	big := NewRandomList(1<<22, 5)
	slow := s.Submit(Request{Op: OpRank, List: big})
	for s.Stats().Dispatches == 0 {
		time.Sleep(50 * time.Microsecond) // until the dispatcher picks up slow
	}
	blocker := NewRandomList(200, 6)
	queued := s.Submit(Request{Op: OpRank, List: blocker})
	small := NewRandomList(300, 7)
	if tk, err := s.SubmitTimeout(Request{Op: OpRank, List: small}, 3*time.Millisecond); err == nil {
		// The slow request finished faster than the timeout; still a
		// valid admission — consume it.
		if _, werr := tk.Wait(); werr != nil {
			t.Errorf("admitted request failed: %v", werr)
		}
	} else if !errors.Is(err, ErrBackpressure) || tk != nil {
		t.Errorf("full queue: (%v, %v), want (nil, ErrBackpressure)", tk, err)
	}

	// With a generous timeout the helper must ride out the slow request
	// and get admitted and served.
	tk, err := s.SubmitTimeout(Request{Op: OpRank, List: small}, 30*time.Second)
	if err != nil {
		t.Fatalf("generous timeout still rejected: %v", err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
	if _, err := queued.Wait(); err != nil {
		t.Fatalf("queued request: %v", err)
	}
	if _, err := slow.Wait(); err != nil {
		t.Fatalf("slow request: %v", err)
	}
	checkIdentity(t, s)
}

// TestServerMalformedProbesPoisoned: the malformed-list probes of
// internal/core's TestMalformedProbesPanic — a 4096-vertex chain whose
// end closes into a 2-cycle or a long cycle, leaving the self-loop
// tail unreachable — used to spin an engine forever, wedging its shard.
// Served without input validation, each must now end ErrPanic
// (poisoned) within the watchdog bound — rank, scan and a
// generic-operator scan alike — with the accounting identity exact.
// The seeds are ones at which the engine used to hang. Procs 1: at
// Procs > 1 two sublists reaching one vertex of a malformed list race
// on its record.
func TestServerMalformedProbesPoisoned(t *testing.T) {
	const n = 4096
	probe := func(back int64) *List {
		l := &List{Next: make([]int64, n), Value: make([]int64, n)}
		for i := range l.Next {
			l.Next[i] = int64(i + 1)
			l.Value[i] = int64(i%7) - 3
		}
		l.Next[n-2] = back
		l.Next[n-1] = n - 1
		return l
	}
	s := NewServer(ServerOptions{Procs: 1})
	var tickets []*Ticket
	for _, pr := range []struct {
		back int64
		seed uint64
	}{{n - 3, 3}, {1000, 1}} {
		for _, op := range []Op{OpRank, OpScan, OpScanOp} {
			req := Request{Op: op, List: probe(pr.back), Opt: Options{Seed: pr.seed}}
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
	if st := s.Stats(); st.Poisoned != int64(len(tickets)) {
		t.Errorf("poisoned %d, want %d", st.Poisoned, len(tickets))
	}
	checkIdentity(t, s)
	s.Close()
}
