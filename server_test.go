package listrank

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// serverRef computes the expected result for a request with the
// serial reference.
func serverRef(op Op, l *List) []int64 {
	if op == OpScan {
		return ScanWith(l, Options{Algorithm: Serial})
	}
	return RankWith(l, Options{Algorithm: Serial})
}

// TestServerServesCorrectly streams mixed-size, mixed-op requests
// across all three default-ish bins, over several rounds so engines
// and tickets recycle, and checks every result against the serial
// reference.
func TestServerServesCorrectly(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 4, BinBounds: []int{1 << 10, 1 << 14}})
	defer s.Close()
	sizes := []int{1, 2, 600, 1000, 1024, 1025, 4000, 16384, 16385, 60000}
	// One list per (size, op): a list must not be shared between
	// concurrently in-flight requests (see Request.List), and rank and
	// scan for one size are in flight together below.
	rankL := make([]*List, len(sizes))
	scanL := make([]*List, len(sizes))
	want := make(map[int][2][]int64)
	for i, n := range sizes {
		rankL[i] = NewRandomList(n, uint64(n)+3)
		scanL[i] = NewRandomList(n, uint64(n)+77)
		want[i] = [2][]int64{serverRef(OpRank, rankL[i]), serverRef(OpScan, scanL[i])}
	}
	for round := 0; round < 4; round++ {
		tickets := make([]*Ticket, 0, 2*len(sizes))
		for i := range sizes {
			tickets = append(tickets, s.Submit(Request{Op: OpRank, List: rankL[i], Opt: Options{Seed: uint64(round)}}))
			tickets = append(tickets, s.Submit(Request{Op: OpScan, List: scanL[i], Dst: make([]int64, scanL[i].Len())}))
		}
		for k, tk := range tickets {
			got, err := tk.Wait()
			if err != nil {
				t.Fatalf("round %d ticket %d: %v", round, k, err)
			}
			i, op := k/2, Op(k%2)
			w := want[i][op]
			for v := range w {
				if got[v] != w[v] {
					t.Fatalf("round %d list %d op %d: out[%d] = %d, want %d", round, i, op, v, got[v], w[v])
				}
			}
		}
	}
	st := s.Stats()
	if st.Served != int64(4*2*len(sizes)) || st.Rejected != 0 {
		t.Errorf("stats: served %d rejected %d, want %d and 0", st.Served, st.Rejected, 4*2*len(sizes))
	}
}

// TestServerRespectsRequestOptions: a request may name either
// Algorithm and any Seed (Procs is server-owned and ignored). Its shard
// engine serves it with the serial walk for Serial and the sublist
// algorithm otherwise, and each answer must match the serial
// reference.
func TestServerRespectsRequestOptions(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2})
	defer s.Close()
	l := NewRandomList(3000, 17)
	want := serverRef(OpRank, l)
	for _, alg := range []Algorithm{Sublist, Serial} {
		got, err := s.Submit(Request{Op: OpRank, List: l, Opt: Options{Algorithm: alg, Procs: 999}}).Wait()
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v: rank[%d] = %d, want %d", alg, v, got[v], want[v])
			}
		}
	}
}

// TestServerConcurrentSubmitters hammers one server from many
// goroutines; every result must be correct and every ticket must
// complete.
func TestServerConcurrentSubmitters(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 4, QueueDepth: 8})
	defer s.Close()
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 500 + 731*g
			l := NewRandomList(n, uint64(g))
			want := serverRef(OpRank, l)
			dst := make([]int64, n)
			for r := 0; r < rounds; r++ {
				got, err := s.Submit(Request{Op: OpRank, List: l, Dst: dst}).Wait()
				if err != nil {
					t.Errorf("worker %d round %d: %v", g, r, err)
					return
				}
				for v := range want {
					if got[v] != want[v] {
						t.Errorf("worker %d round %d: rank[%d] = %d, want %d", g, r, v, got[v], want[v])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServerBadRequest: malformed submissions complete immediately
// with ErrBadRequest; zero-length lists complete successfully without
// touching the fleet.
func TestServerBadRequest(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 1})
	defer s.Close()
	if _, err := s.Submit(Request{Op: OpRank, List: nil}).Wait(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("nil list: %v, want ErrBadRequest", err)
	}
	l := NewRandomList(100, 1)
	if _, err := s.Submit(Request{Op: OpRank, List: l, Dst: make([]int64, 99)}).Wait(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("short dst: %v, want ErrBadRequest", err)
	}
	empty := &List{}
	if out, err := s.Rank(empty, nil).Wait(); err != nil || len(out) != 0 {
		t.Errorf("empty list: %v %v, want success", out, err)
	}
}

// TestServerBackpressureReject: with a depth-1 queue under the Reject
// policy and the dispatcher pinned on a slow request, a burst must
// shed load with ErrBackpressure — and everything that was admitted
// must still be served correctly.
func TestServerBackpressureReject(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 1, BinBounds: []int{1 << 22}, QueueDepth: 1, Reject: true})
	defer s.Close()
	big := NewRandomList(1<<21, 5)
	slow := s.Submit(Request{Op: OpRank, List: big})
	small := NewRandomList(200, 6)
	want := serverRef(OpRank, small)
	const burst = 50
	tickets := make([]*Ticket, burst)
	for i := range tickets {
		tickets[i] = s.Rank(small, nil)
	}
	rejected, served := 0, 0
	for _, tk := range tickets {
		got, err := tk.Wait()
		switch {
		case errors.Is(err, ErrBackpressure):
			rejected++
		case err != nil:
			t.Fatalf("unexpected error: %v", err)
		default:
			served++
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("served request corrupted: rank[%d] = %d, want %d", v, got[v], want[v])
				}
			}
		}
	}
	if _, err := slow.Wait(); err != nil {
		t.Fatalf("slow request: %v", err)
	}
	if rejected == 0 {
		t.Error("no submission was rejected despite a full depth-1 queue")
	}
	st := s.Stats()
	if st.Rejected != int64(rejected) || st.Served != int64(served)+1 {
		t.Errorf("stats: %+v, want rejected %d served %d", st, rejected, served+1)
	}
}

// TestServerBlockingBackpressure: under the default Block policy a
// tiny queue never rejects — submitters park until space frees up and
// every request is served.
func TestServerBlockingBackpressure(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2, QueueDepth: 1})
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		// Scan mutates its list during setup, so every goroutine owns
		// its list (in-flight requests must not share one).
		l := NewRandomList(1000, uint64(g)+9)
		want := serverRef(OpScan, l)
		go func() {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				got, err := s.Scan(l, nil).Wait()
				if err != nil {
					t.Errorf("blocking submit failed: %v", err)
					return
				}
				if got[l.Head] != want[l.Head] {
					t.Error("wrong scan result")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Rejected != 0 || st.Served != 6*25 {
		t.Errorf("stats: %+v, want 0 rejected, %d served", st, 6*25)
	}
}

// TestServerCoalesces: requests that queue up behind a slow one are
// served as one coalesced dispatch — fewer engine dispatches than
// requests.
func TestServerCoalesces(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2, BinBounds: []int{1 << 22}, QueueDepth: 256})
	defer s.Close()
	big := NewRandomList(1<<21, 5)
	slow := s.Submit(Request{Op: OpRank, List: big})
	small := NewRandomList(300, 8)
	const burst = 32
	tickets := make([]*Ticket, burst)
	for i := range tickets {
		tickets[i] = s.Rank(small, nil)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := slow.Wait(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Coalesced < 2 {
		t.Errorf("coalesced %d requests, want ≥ 2 (dispatches %d, served %d)",
			st.Coalesced, st.Dispatches, st.Served)
	}
	if st.Dispatches >= st.Served {
		t.Errorf("dispatches %d not reduced below served %d by coalescing", st.Dispatches, st.Served)
	}
}

// TestServerCloseDrains: requests admitted before Close are all
// served; requests after Close fail with ErrServerClosed.
func TestServerCloseDrains(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2, QueueDepth: 64})
	l := NewRandomList(2000, 4)
	want := serverRef(OpRank, l)
	const inflight = 40
	tickets := make([]*Ticket, inflight)
	for i := range tickets {
		tickets[i] = s.Rank(l, nil)
	}
	s.Close()
	for i, tk := range tickets {
		got, err := tk.Wait()
		if err != nil {
			t.Fatalf("pre-Close request %d: %v (Close must drain in-flight work)", i, err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("request %d: rank[%d] = %d, want %d", i, v, got[v], want[v])
			}
		}
	}
	if _, err := s.Rank(l, nil).Wait(); !errors.Is(err, ErrServerClosed) {
		t.Errorf("post-Close submit: %v, want ErrServerClosed", err)
	}
	s.Close() // idempotent
}

// TestServerCloseNoGoroutineLeak mirrors the worker-pool suite's leak
// check one layer up: creating a server, serving traffic, and closing
// it must return the process to its previous goroutine count.
func TestServerCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewServer(ServerOptions{Procs: 6, BinBounds: []int{1 << 10, 1 << 14}})
	for r := 0; r < 5; r++ {
		tk1 := s.Rank(NewRandomList(500, uint64(r)), nil)
		tk2 := s.Scan(NewRandomList(30000, uint64(r)), nil)
		if _, err := tk1.Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := tk2.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before server, %d after Close", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestFleetZeroAllocSteadyState is the serving layer's acceptance
// contract: a warm server at Procs=4 serving a steady mixed-size
// trace spanning three size bins performs zero heap allocations per
// request — not just post-admission but for the whole
// submit→serve→complete→recycle cycle (ticket checkout, queue
// hand-off, engine dispatch, completion signal, ticket recycle).
func TestFleetZeroAllocSteadyState(t *testing.T) {
	sizes := []int{600, 900, 4000, 12000, 50000, 120000} // 3 bins: ≤1k, ≤16k, unbounded
	s := NewServer(ServerOptions{
		Procs:     4,
		BinBounds: []int{1 << 10, 1 << 14},
		WarmSizes: sizes,
	})
	defer s.Close()
	lists := make([]*List, len(sizes))
	dsts := make([][]int64, len(sizes))
	for i, n := range sizes {
		lists[i] = NewRandomList(n, uint64(n))
		dsts[i] = make([]int64, n)
	}
	tickets := make([]*Ticket, len(sizes))
	trace := func() {
		for i := range lists {
			op := Op(i % 2)
			tickets[i] = s.Submit(Request{Op: op, List: lists[i], Dst: dsts[i], Opt: Options{Seed: 7}})
		}
		for _, tk := range tickets {
			if _, err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the admission machinery (ticket freelist, queue rings) and
	// both serve paths on every shard.
	for i := 0; i < 3; i++ {
		trace()
	}
	if allocs := testing.AllocsPerRun(5, trace); allocs != 0 {
		t.Errorf("steady trace: %v allocs per %d-request trace, want 0", allocs, len(sizes))
	}
	// The trace really did span all three bins.
	st := s.Stats()
	for b, served := range st.BinServed {
		if served == 0 {
			t.Errorf("bin %d served no requests; the trace must span every bin", b)
		}
	}
}

// BenchmarkServerThroughput compares the serving layer against the
// naive alternative it replaces: a warm coalescing server ranking a
// stream of small requests versus a per-request Rank loop that pays
// full within-list contraction overhead (and result+engine traffic)
// per call. The server side reports 0 allocs/op once warm.
func BenchmarkServerThroughput(b *testing.B) {
	const nLists, each = 256, 2048
	lists := make([]*List, nLists)
	dsts := make([][]int64, nLists)
	for i := range lists {
		lists[i] = NewRandomList(each, uint64(i))
		dsts[i] = make([]int64, each)
	}
	b.Run("server-coalesced", func(b *testing.B) {
		s := NewServer(ServerOptions{Procs: 4, BinBounds: []int{4096}, WarmSizes: []int{each}})
		defer s.Close()
		tickets := make([]*Ticket, nLists)
		warm := func() {
			for j := range lists {
				tickets[j] = s.Submit(Request{Op: OpRank, List: lists[j], Dst: dsts[j]})
			}
			for _, tk := range tickets {
				if _, err := tk.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		}
		warm()
		b.SetBytes(8 * nLists * each)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			warm()
		}
	})
	b.Run("naive-rank-loop", func(b *testing.B) {
		b.SetBytes(8 * nLists * each)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range lists {
				_ = RankWith(lists[j], Options{Procs: 4})
			}
		}
	})

	// Large-list legs: chase-dominated traffic, where the serving
	// layer inherits the lane-interleaved kernel speedup end to end.
	// The lane-oracle leg pins LaneWidth to 1 (the serial single-
	// cursor chase) on the same fleet, so the pair isolates what the
	// kernels buy on live traffic rather than in microbenchmarks.
	const nLarge, eachLarge = 6, 1 << 19
	var large []*List
	var largeDsts [][]int64
	// Built lazily on the first matched large leg, so selecting only
	// the small-list legs never pays for ~100 MB of large lists.
	setupLarge := func() {
		if large != nil {
			return
		}
		large = make([]*List, nLarge)
		largeDsts = make([][]int64, nLarge)
		for i := range large {
			large[i] = NewRandomList(eachLarge, uint64(100+i))
			largeDsts[i] = make([]int64, eachLarge)
		}
	}
	for _, lw := range []int{0, 1} {
		name := "server-large-lanes"
		if lw == 1 {
			name = "server-large-lane-oracle"
		}
		b.Run(name, func(b *testing.B) {
			setupLarge()
			s := NewServer(ServerOptions{Procs: 4, WarmSizes: []int{eachLarge}})
			defer s.Close()
			tickets := make([]*Ticket, nLarge)
			serve := func() {
				for j := range large {
					tickets[j] = s.Submit(Request{Op: OpRank, List: large[j], Dst: largeDsts[j], Opt: Options{LaneWidth: lw}})
				}
				for _, tk := range tickets {
					if _, err := tk.Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
			serve()
			b.SetBytes(8 * nLarge * eachLarge)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}

	// The reorder-cache leg: the same six large lists as repeat
	// traffic through handles. After the one-time re-layout, every
	// rank is a memcpy of the cached rank table — the acceptance
	// target is ≥5x over server-large-lanes at 0 allocs/op.
	b.Run("server-large-reorder-warm", func(b *testing.B) {
		setupLarge()
		s := NewServer(ServerOptions{
			Procs:              4,
			WarmSizes:          []int{eachLarge},
			ReorderAfter:       1,
			ReorderBudgetBytes: 512 << 20, // all six layouts fit
		})
		defer s.Close()
		handles := make([]*Handle, nLarge)
		for j := range large {
			handles[j] = s.Register(large[j])
		}
		tickets := make([]*Ticket, nLarge)
		serve := func() {
			for j := range handles {
				tickets[j] = s.Submit(Request{Op: OpRank, Handle: handles[j], Dst: largeDsts[j]})
			}
			for _, tk := range tickets {
				if _, err := tk.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		}
		serve() // cold: builds every layout
		serve() // warm
		if st := s.Stats(); st.ReorderBuilds != nLarge {
			b.Fatalf("expected %d layout builds before measuring, got %d", nLarge, st.ReorderBuilds)
		}
		b.SetBytes(8 * nLarge * eachLarge)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve()
		}
	})
}

// TestServerSharedListConcurrent is TestSharedListConcurrent through a
// Server: requests on one List, and on one cold Handle (its reorder
// threshold is never reached, so every serve runs an engine), are all
// in flight at once. Each answer must equal the serial oracle, the
// shared arrays must be bit-identical afterwards, and the accounting
// identity must hold.
func TestServerSharedListConcurrent(t *testing.T) {
	sp := newSharedProblems(1 << 14)
	s := NewServer(ServerOptions{Procs: 2, ReorderAfter: 1 << 20})
	defer s.Close()
	h := s.Register(sp.l)
	type job struct {
		req  Request
		want []int64
	}
	var jobs []job
	for r := 0; r < 4; r++ {
		opt := Options{Seed: uint64(r)}
		for _, src := range []Request{{List: sp.l, Opt: opt}, {Handle: h, Opt: opt}} {
			rank, scan, smax := src, src, src
			rank.Op, scan.Op = OpRank, OpScan
			smax.Op, smax.ScanOp, smax.Identity = OpScanOp, sharedMax, -1<<62
			jobs = append(jobs, job{rank, sp.want[0]}, job{scan, sp.want[1]}, job{smax, sp.want[2]})
		}
		jobs = append(jobs, job{Request{Op: OpScan, List: sp.wl, Opt: opt}, sp.want[3]})
	}
	tickets := make([]*Ticket, len(jobs))
	for i, j := range jobs {
		tickets[i] = s.Submit(j.req)
	}
	for i, tk := range tickets {
		got, err := tk.Wait()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for v, w := range jobs[i].want {
			if got[v] != w {
				t.Fatalf("request %d (op %d, handle %v): dst[%d] = %d, want %d", i, jobs[i].req.Op, jobs[i].req.Handle != nil, v, got[v], w)
			}
		}
	}
	sp.checkUntouched(t)
	checkIdentity(t, s)
}
