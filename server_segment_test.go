package listrank

import (
	"errors"
	"testing"
	"time"
)

// segIdentity asserts the accounting identity at a quiescent point
// and returns the snapshot: a segmented request is one submission and
// must land in exactly one bucket like any other.
func segIdentity(t *testing.T, s *Server) ServerStats {
	t.Helper()
	st := s.Stats()
	if st.Submitted != st.Served+st.Rejected+st.Expired+st.Poisoned+st.Shed {
		t.Errorf("identity violated: submitted %d != served %d + rejected %d + expired %d + poisoned %d + shed %d",
			st.Submitted, st.Served, st.Rejected, st.Expired, st.Poisoned, st.Shed)
	}
	return st
}

// TestServerSegmentedMatchesMonolithic drives rank, scan and
// operator-scan requests through the segmented engine and checks
// every result against the serial reference and every request
// against the Segmented count.
func TestServerSegmentedMatchesMonolithic(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 4, BinBounds: []int{1 << 10, 1 << 14}})
	defer s.Close()
	wantSeg := int64(0)
	for _, S := range []int{2, 3, 7} {
		for _, n := range []int{5000, 40000, 37*S + 1} {
			l := NewRandomList(n, uint64(n+S))
			affineValues(l, uint64(S))
			wantRank := RankWith(l, Options{Algorithm: Serial})
			wantScan := ScanWith(l, Options{Algorithm: Serial})
			wantOp := ScanOpWith(l, affineCompose, affineID, Options{Algorithm: Serial})

			got, err := s.Submit(Request{Op: OpRank, List: l, Segments: S}).Wait()
			if err != nil {
				t.Fatalf("S=%d n=%d rank: %v", S, n, err)
			}
			checkSlice(t, "rank", got, wantRank)
			dst := make([]int64, n)
			if _, err := s.Submit(Request{Op: OpScan, List: l, Dst: dst, Segments: S}).Wait(); err != nil {
				t.Fatalf("S=%d n=%d scan: %v", S, n, err)
			}
			checkSlice(t, "scan", dst, wantScan)
			got, err = s.Submit(Request{Op: OpScanOp, List: l, ScanOp: affineCompose, Identity: affineID, Segments: S}).Wait()
			if err != nil {
				t.Fatalf("S=%d n=%d scanop: %v", S, n, err)
			}
			checkSlice(t, "scanop", got, wantOp)

			// Segments is clamped to n, so every request above split into
			// exactly S segments (n >> S throughout).
			wantSeg += 3
		}
	}
	st := segIdentity(t, s)
	if st.Segmented != wantSeg {
		t.Errorf("Segmented = %d, want %d", st.Segmented, wantSeg)
	}
	if st.Rejected != 0 || st.Expired != 0 || st.Poisoned != 0 {
		t.Errorf("clean trace hit failure buckets: %+v", st)
	}
}

// TestServerAutoSegment checks the size trigger: requests over the
// threshold split without the client asking, requests under it stay
// monolithic, and handles are never auto-split.
func TestServerAutoSegment(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2, AutoSegment: 4096})
	defer s.Close()
	big := NewRandomList(100000, 1)
	want := RankWith(big, Options{Algorithm: Serial})
	got, err := s.Rank(big, nil).Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkSlice(t, "auto rank", got, want)
	st := s.Stats()
	if st.Segmented != 1 {
		t.Fatalf("Segmented = %d after over-threshold request, want 1", st.Segmented)
	}

	small := NewRandomList(1000, 2)
	if _, err := s.Rank(small, nil).Wait(); err != nil {
		t.Fatal(err)
	}
	h := s.Register(big)
	if _, err := s.Submit(Request{Op: OpRank, Handle: h}).Wait(); err != nil {
		t.Fatal(err)
	}
	if st := segIdentity(t, s); st.Segmented != 1 {
		t.Errorf("Segmented = %d after small + handle requests, want still 1", st.Segmented)
	}
}

// TestServerSegmentedBadRequest pins the request-validation surface:
// negative Segments, Segments on a Handle, and a segmented scan whose
// list has no values all fail with ErrBadRequest and stay inside the
// Rejected bucket.
func TestServerSegmentedBadRequest(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2})
	defer s.Close()
	l := NewRandomList(8192, 3)
	if _, err := s.Submit(Request{Op: OpRank, List: l, Segments: -1}).Wait(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative Segments: %v, want ErrBadRequest", err)
	}
	h := s.Register(l)
	if _, err := s.Submit(Request{Op: OpRank, Handle: h, Segments: 2}).Wait(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("Segments with Handle: %v, want ErrBadRequest", err)
	}
	bare := &List{Next: append([]int64(nil), l.Next...), Head: l.Head}
	if _, err := s.Submit(Request{Op: OpScan, List: bare, Segments: 4}).Wait(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("segmented scan without values: %v, want ErrBadRequest", err)
	}
	st := segIdentity(t, s)
	if st.Rejected != 3 {
		t.Errorf("Rejected = %d, want 3", st.Rejected)
	}
}

// TestServerSegmentedPoisoned is the fault-containment gate: a
// poisoned segment — structural damage confined to one segment's
// window, or damage only the cross-segment assembly can see — fails
// exactly its own request with ErrPanic, later traffic is unaffected,
// and the accounting stays balanced with no stranded tickets (every
// Wait returns).
func TestServerSegmentedPoisoned(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 4, BinBounds: []int{1 << 12}})
	defer s.Close()
	const n = 20000

	// In-segment damage: vertex 100 links forward to 500, orphaning
	// 101..499 inside segment 0. The segment's own walk discovers the
	// coverage gap, so the fault surfaces in a Phase 1 walk and must
	// fail this request alone.
	inSeg := NewOrderedList(n)
	inSeg.Next[100] = 500
	if _, err := s.Submit(Request{Op: OpRank, List: inSeg, Segments: 4}).Wait(); !errors.Is(err, ErrPanic) {
		t.Errorf("in-segment damage: %v, want ErrPanic", err)
	}

	// Cross-segment damage: vertex 100 jumps to 17000, giving 17000
	// two predecessors in different segments. Only the boundary
	// assembly can see this one.
	crossSeg := NewOrderedList(n)
	crossSeg.Next[100] = 17000
	if _, err := s.Submit(Request{Op: OpRank, List: crossSeg, Segments: 4}).Wait(); !errors.Is(err, ErrPanic) {
		t.Errorf("cross-segment damage: %v, want ErrPanic", err)
	}

	// The fleet survived both faults: a healthy segmented request on
	// the same server still serves exactly.
	good := NewRandomList(n, 9)
	want := RankWith(good, Options{Algorithm: Serial})
	got, err := s.Submit(Request{Op: OpRank, List: good, Segments: 4}).Wait()
	if err != nil {
		t.Fatalf("healthy request after faults: %v", err)
	}
	checkSlice(t, "post-fault rank", got, want)

	st := segIdentity(t, s)
	if st.Poisoned == 0 {
		t.Error("no submission counted poisoned")
	}
	if st.Segmented != 3 {
		t.Errorf("Segmented = %d, want 3", st.Segmented)
	}
}

// TestServerSegmentedExpired checks deadline plumbing end to end: a
// segmented request expiring queued or mid-run is withdrawn with
// ErrDeadlineExceeded, and the books stay balanced.
func TestServerSegmentedExpired(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2})
	defer s.Close()
	l := NewRandomList(1<<21, 4)
	tk := s.Submit(Request{Op: OpRank, List: l, Segments: 8, Deadline: time.Now().Add(3 * time.Millisecond)})
	if _, err := tk.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("racing deadline on a 2M-element segmented rank: %v, want ErrDeadlineExceeded", err)
	}
	// Client cancellation takes the same path via the ticket's token.
	tk = s.Submit(Request{Op: OpRank, List: l, Segments: 8})
	tk.Cancel()
	if _, err := tk.Wait(); err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled segmented rank: %v, want nil or ErrCanceled", err)
	}
	segIdentity(t, s)
	// The server is still healthy.
	small := NewRandomList(4096, 5)
	if _, err := s.Rank(small, nil).Wait(); err != nil {
		t.Fatal(err)
	}
}
