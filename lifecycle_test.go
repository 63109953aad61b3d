package listrank

import (
	"errors"
	"sync"
	"testing"
	"time"

	"listrank/internal/govern"
)

// lifecycleDelta is the part of ServerStats a lifecycle case pins: the
// five identity buckets, segmented serves and reorder-cache traffic.
type lifecycleDelta struct {
	Submitted, Served, Rejected, Expired, Poisoned, Shed int64
	Segmented, ReorderHits, ReorderMisses                int64
}

func deltaOf(before, after ServerStats) lifecycleDelta {
	return lifecycleDelta{
		Submitted:     after.Submitted - before.Submitted,
		Served:        after.Served - before.Served,
		Rejected:      after.Rejected - before.Rejected,
		Expired:       after.Expired - before.Expired,
		Poisoned:      after.Poisoned - before.Poisoned,
		Shed:          after.Shed - before.Shed,
		Segmented:     after.Segmented - before.Segmented,
		ReorderHits:   after.ReorderHits - before.ReorderHits,
		ReorderMisses: after.ReorderMisses - before.ReorderMisses,
	}
}

// opGate is an OpScanOp operator that parks whichever serve calls it
// first until the test opens the gate: it pins a shard at a known
// point without timing assumptions.
type opGate struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newOpGate() *opGate {
	return &opGate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *opGate) op(a, b int64) int64 {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return a + b
}

func (g *opGate) open() { close(g.release) }

// pin submits a gated scan of l and returns once a shard is parked
// inside it; the caller opens the gate and waits the returned ticket.
func (g *opGate) pin(s *Server, l *List) *Ticket {
	tk := s.Submit(Request{Op: OpScanOp, List: l, ScanOp: g.op})
	<-g.entered
	return tk
}

// wantErr waits the ticket and checks its error against want (nil
// means served).
func wantErr(t *testing.T, what string, tk *Ticket, want error) {
	t.Helper()
	_, err := tk.Wait()
	if want == nil && err != nil || want != nil && !errors.Is(err, want) {
		t.Errorf("%s: err = %v, want %v", what, err, want)
	}
}

// TestTicketLifecycle walks every entry path into every terminal
// outcome — admission, solo and coalesced serves, handle cold and warm
// serves, segmented serves — and checks that each submission lands in
// exactly one ServerStats bucket, that the identity balances, and that
// every shard's backlog gauge drains back to zero.
func TestTicketLifecycle(t *testing.T) {
	const n = 1000
	poisoned := func(n int) *List {
		l := NewRandomList(n, 3)
		l.Next[l.Head] = int64(n) + 7
		return l
	}
	var warm *Handle // registered by the warm-handle case's setup
	cases := []struct {
		name  string
		opt   ServerOptions
		setup func(t *testing.T, s *Server) // not counted in the delta
		run   func(t *testing.T, s *Server)
		want  lifecycleDelta
	}{
		// Admission.
		{name: "admit/empty-served", run: func(t *testing.T, s *Server) {
			wantErr(t, "empty list", s.Rank(&List{}, nil), nil)
		}, want: lifecycleDelta{Submitted: 1, Served: 1}},
		{name: "admit/nil-list", run: func(t *testing.T, s *Server) {
			wantErr(t, "nil List", s.Submit(Request{Op: OpRank}), ErrBadRequest)
		}, want: lifecycleDelta{Submitted: 1, Rejected: 1}},
		{name: "admit/dst-length", run: func(t *testing.T, s *Server) {
			wantErr(t, "short Dst", s.Rank(NewRandomList(n, 1), make([]int64, n-1)), ErrBadRequest)
		}, want: lifecycleDelta{Submitted: 1, Rejected: 1}},
		{name: "admit/short-value", run: func(t *testing.T, s *Server) {
			l := NewRandomList(n, 1)
			l.Value = l.Value[:n-1]
			wantErr(t, "short Value", s.Scan(l, nil), ErrBadRequest)
		}, want: lifecycleDelta{Submitted: 1, Rejected: 1}},
		{name: "admit/nil-scanop", run: func(t *testing.T, s *Server) {
			wantErr(t, "nil ScanOp", s.Submit(Request{Op: OpScanOp, List: NewRandomList(n, 1)}), ErrBadRequest)
		}, want: lifecycleDelta{Submitted: 1, Rejected: 1}},
		{name: "admit/negative-segments", run: func(t *testing.T, s *Server) {
			wantErr(t, "Segments -1", s.Submit(Request{Op: OpRank, List: NewRandomList(n, 1), Segments: -1}), ErrBadRequest)
		}, want: lifecycleDelta{Submitted: 1, Rejected: 1}},
		{name: "admit/closed", setup: func(t *testing.T, s *Server) { s.Close() }, run: func(t *testing.T, s *Server) {
			wantErr(t, "after Close", s.Rank(NewRandomList(n, 1), nil), ErrServerClosed)
		}, want: lifecycleDelta{Submitted: 1, Rejected: 1}},
		// A zero-length list must not slip past the closed check.
		{name: "admit/empty-after-close", setup: func(t *testing.T, s *Server) { s.Close() }, run: func(t *testing.T, s *Server) {
			wantErr(t, "empty after Close", s.Rank(&List{}, nil), ErrServerClosed)
		}, want: lifecycleDelta{Submitted: 1, Rejected: 1}},
		{name: "admit/backpressure", opt: ServerOptions{Procs: 1, QueueDepth: 1, Reject: true},
			run: func(t *testing.T, s *Server) {
				g := newOpGate()
				blocker := g.pin(s, NewRandomList(n, 1))
				queued := s.Rank(NewRandomList(n, 2), nil) // fills the one-slot queue
				wantErr(t, "full queue", s.Rank(NewRandomList(n, 3), nil), ErrBackpressure)
				g.open()
				wantErr(t, "blocker", blocker, nil)
				wantErr(t, "queued", queued, nil)
			}, want: lifecycleDelta{Submitted: 3, Served: 2, Rejected: 1}},
		{name: "admit/hard-pressure-shed", opt: ServerOptions{Procs: 1, Governor: govern.New(1000)},
			run: func(t *testing.T, s *Server) {
				s.gov.Adjust(govern.ClassReorder, 960) // 96% of the limit: hard
				defer s.gov.Adjust(govern.ClassReorder, -960)
				wantErr(t, "hard pressure", s.Rank(NewRandomList(n, 1), nil), ErrShed)
			}, want: lifecycleDelta{Submitted: 1, Shed: 1}},
		{name: "admit/infeasible-deadline-shed", opt: ServerOptions{Procs: 1, Shed: true},
			setup: func(t *testing.T, s *Server) {
				// Warm the shard's serve-cost estimate to one second per
				// element, so any n-element deadline inside a minute is
				// infeasible whatever the host's speed.
				s.shards[s.bins.Index(n)].observe(1, time.Second)
			},
			run: func(t *testing.T, s *Server) {
				tk := s.Submit(Request{Op: OpRank, List: NewRandomList(n, 1), Deadline: time.Now().Add(time.Minute)})
				wantErr(t, "infeasible deadline", tk, ErrShed)
			}, want: lifecycleDelta{Submitted: 1, Shed: 1}},
		{name: "admit/dead-on-arrival", run: func(t *testing.T, s *Server) {
			tk := s.Submit(Request{Op: OpRank, List: NewRandomList(n, 1), Deadline: time.Now().Add(-time.Second)})
			wantErr(t, "past deadline", tk, ErrDeadlineExceeded)
		}, want: lifecycleDelta{Submitted: 1, Expired: 1}},

		// Solo serves on a shard.
		{name: "solo/served", run: func(t *testing.T, s *Server) {
			wantErr(t, "served", s.Rank(NewRandomList(n, 1), nil), nil)
		}, want: lifecycleDelta{Submitted: 1, Served: 1}},
		{name: "solo/poisoned", run: func(t *testing.T, s *Server) {
			wantErr(t, "poisoned", s.Rank(poisoned(n), nil), ErrPanic)
		}, want: lifecycleDelta{Submitted: 1, Poisoned: 1}},
		{name: "solo/canceled-while-queued", opt: ServerOptions{Procs: 1},
			run: func(t *testing.T, s *Server) {
				g := newOpGate()
				blocker := g.pin(s, NewRandomList(n, 1))
				tk := s.Rank(NewRandomList(n, 2), nil)
				tk.Cancel()
				g.open()
				wantErr(t, "canceled while queued", tk, ErrCanceled)
				wantErr(t, "blocker", blocker, nil)
			}, want: lifecycleDelta{Submitted: 2, Served: 1, Expired: 1}},

		// A coalesced batch: the gate holds the shard while the burst
		// queues, so the dispatcher takes it in one multi-request batch.
		{name: "batch/one-poisoned-peer", opt: ServerOptions{Procs: 2},
			run: func(t *testing.T, s *Server) {
				g := newOpGate()
				blocker := g.pin(s, NewRandomList(n, 1))
				before := s.Stats().Coalesced
				const burst = 8
				tks := make([]*Ticket, burst)
				for i := range tks {
					l := NewRandomList(n, uint64(i)+10)
					if i == burst/2 {
						l = poisoned(n)
					}
					tks[i] = s.Rank(l, nil)
				}
				g.open()
				wantErr(t, "blocker", blocker, nil)
				for i, tk := range tks {
					var want error
					if i == burst/2 {
						want = ErrPanic
					}
					wantErr(t, "batch peer", tk, want)
				}
				if got := s.Stats().Coalesced - before; got != burst {
					t.Errorf("Coalesced delta = %d, want %d (one batch)", got, burst)
				}
			}, want: lifecycleDelta{Submitted: 9, Served: 8, Poisoned: 1}},

		// Handles: the default cache builds on the second serve, so the
		// setup's two serves leave the warm case a live layout.
		{name: "handle/cold", run: func(t *testing.T, s *Server) {
			h := s.Register(NewRandomList(n, 1))
			wantErr(t, "cold handle", s.Submit(Request{Op: OpRank, Handle: h}), nil)
		}, want: lifecycleDelta{Submitted: 1, Served: 1, ReorderMisses: 1}},
		{name: "handle/warm", setup: func(t *testing.T, s *Server) {
			warm = s.Register(NewRandomList(n, 1))
			for i := 0; i < 2; i++ {
				wantErr(t, "warming serve", s.Submit(Request{Op: OpRank, Handle: warm}), nil)
			}
		}, run: func(t *testing.T, s *Server) {
			wantErr(t, "warm handle", s.Submit(Request{Op: OpScan, Handle: warm}), nil)
		}, want: lifecycleDelta{Submitted: 1, Served: 1, ReorderHits: 1}},

		// Segmented requests (S = 4) are queued and served on their
		// shard like any other request; Segmented counts the ones the
		// segmented engine ran.
		{name: "segmented/served", run: func(t *testing.T, s *Server) {
			tk := s.Submit(Request{Op: OpRank, List: NewRandomList(20000, 1), Segments: 4})
			wantErr(t, "segmented", tk, nil)
		}, want: lifecycleDelta{Submitted: 1, Served: 1, Segmented: 1}},
		{name: "segmented/poisoned", run: func(t *testing.T, s *Server) {
			// An out-of-range link: Prepare trips on it.
			tk := s.Submit(Request{Op: OpRank, List: poisoned(20000), Segments: 4})
			wantErr(t, "segmented poisoned", tk, ErrPanic)
		}, want: lifecycleDelta{Submitted: 1, Poisoned: 1, Segmented: 1}},
		{name: "segmented/expired", run: func(t *testing.T, s *Server) {
			// The gate parks a Phase 1 run walk; the request is canceled
			// meanwhile, so the engine abandons it after Phase 1.
			g := newOpGate()
			tk := s.Submit(Request{Op: OpScanOp, List: NewRandomList(20000, 1), ScanOp: g.op, Segments: 4})
			<-g.entered
			tk.Cancel()
			g.open()
			wantErr(t, "segmented canceled", tk, ErrCanceled)
		}, want: lifecycleDelta{Submitted: 1, Expired: 1, Segmented: 1}},
		{name: "segmented/canceled-while-queued", opt: ServerOptions{Procs: 1},
			run: func(t *testing.T, s *Server) {
				g := newOpGate()
				blocker := g.pin(s, NewRandomList(20000, 1))
				tk := s.Submit(Request{Op: OpRank, List: NewRandomList(20000, 2), Segments: 4})
				tk.Cancel()
				g.open()
				wantErr(t, "segmented canceled while queued", tk, ErrCanceled)
				wantErr(t, "blocker", blocker, nil)
			}, want: lifecycleDelta{Submitted: 2, Served: 1, Expired: 1}},
		{name: "segmented/coalesced", opt: ServerOptions{Procs: 4},
			run: func(t *testing.T, s *Server) {
				// Queued behind the gate, the segmented requests and a
				// plain peer share one batch: each runs at Procs 1 on
				// its pool worker.
				g := newOpGate()
				blocker := g.pin(s, NewRandomList(20000, 1))
				before := s.Stats().Coalesced
				tks := []*Ticket{
					s.Submit(Request{Op: OpRank, List: NewRandomList(20000, 2), Segments: 4}),
					s.Submit(Request{Op: OpScan, List: NewRandomList(20000, 3), Segments: 3}),
					s.Rank(NewRandomList(20000, 4), nil),
				}
				g.open()
				wantErr(t, "blocker", blocker, nil)
				for _, tk := range tks {
					wantErr(t, "batch peer", tk, nil)
				}
				if got := s.Stats().Coalesced - before; got != int64(len(tks)) {
					t.Errorf("Coalesced delta = %d, want %d (one batch)", got, len(tks))
				}
			}, want: lifecycleDelta{Submitted: 4, Served: 4, Segmented: 2}},
		{name: "segmented/short-value", run: func(t *testing.T, s *Server) {
			l := NewRandomList(20000, 1)
			l.Value = l.Value[:100]
			tk := s.Submit(Request{Op: OpScan, List: l, Segments: 4})
			wantErr(t, "segmented short Value", tk, ErrBadRequest)
		}, want: lifecycleDelta{Submitted: 1, Rejected: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := c.opt
			if opt.Procs == 0 {
				opt.Procs = 2
			}
			s := NewServer(opt)
			defer s.Close()
			if c.setup != nil {
				c.setup(t, s)
			}
			before := s.Stats()
			c.run(t, s)
			after := s.Stats()
			d := deltaOf(before, after)
			if d != c.want {
				t.Errorf("stats delta = %+v\n                  want %+v", d, c.want)
			}
			if d.Submitted != d.Served+d.Rejected+d.Expired+d.Poisoned+d.Shed {
				t.Errorf("delta identity: %d submitted != %d+%d+%d+%d+%d",
					d.Submitted, d.Served, d.Rejected, d.Expired, d.Poisoned, d.Shed)
			}
			checkIdentity(t, s)
			for b, sh := range s.shards {
				if bl := sh.backlog.Load(); bl != 0 {
					t.Errorf("bin %d backlog = %d at quiescence, want 0", b, bl)
				}
			}
		})
	}
}
