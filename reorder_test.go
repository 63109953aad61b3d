package listrank

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"listrank/internal/govern"
)

// affineOp is a non-commutative operator for OpScanOp coverage; a
// package-level func value so submitting it allocates nothing.
func affineOp(a, b int64) int64 { return 2*a - b }

// TestReorderHelper: the public Reorder helper produces a sequential
// list carrying the original values in list order, and a permutation
// that maps positions back to original vertex ids.
func TestReorderHelper(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000, 4096} {
		l := &List{}
		if n > 0 {
			l = NewRandomList(n, uint64(n)+13)
		}
		for i := range l.Value {
			l.Value[i] = int64(3*i + 1)
		}
		var rank []int64
		if n > 0 {
			rank = serverRef(OpRank, l)
		}
		ordered, perm := Reorder(l)
		if ordered.Len() != n || len(perm) != n {
			t.Fatalf("n=%d: got %d vertices, %d perm entries", n, ordered.Len(), len(perm))
		}
		if n > 0 && ordered.Head != 0 {
			t.Fatalf("n=%d: reordered head %d, want 0", n, ordered.Head)
		}
		for r := int64(0); r < int64(n); r++ {
			v := perm[r]
			if rank[v] != r {
				t.Fatalf("n=%d: perm[%d] = %d but rank[%d] = %d", n, r, v, v, rank[v])
			}
			if ordered.Value[r] != l.Value[v] {
				t.Fatalf("n=%d: ordered.Value[%d] = %d, want l.Value[%d] = %d", n, r, ordered.Value[r], v, l.Value[v])
			}
			want := r + 1
			if r == int64(n)-1 {
				want = r // tail self-loop
			}
			if ordered.Next[r] != want {
				t.Fatalf("n=%d: ordered.Next[%d] = %d, want %d", n, r, ordered.Next[r], want)
			}
		}
		// The original list is intact (rank restores its cuts).
		if n > 0 {
			if err := l.Validate(); err != nil {
				t.Fatalf("n=%d: original list damaged: %v", n, err)
			}
		}
	}
}

// TestServerHandleServes covers the full handle lifecycle through one
// server: cold serves (lane kernels), the threshold build, warm
// serves (sequential kernels) for all three ops, invalidation on
// mutation, and the stats accounting for each.
func TestServerHandleServes(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2, ReorderAfter: 2})
	defer s.Close()
	const n = 5000
	l := NewRandomList(n, 11)
	for i := range l.Value {
		l.Value[i] = int64(i%19) - 9
	}
	h := s.Register(l)
	if h.Len() != n {
		t.Fatalf("handle length %d, want %d", h.Len(), n)
	}
	wantRank := serverRef(OpRank, l)
	wantScan := serverRef(OpScan, l)
	wantOp := ScanOpWith(l, affineOp, 5, Options{Algorithm: Serial})
	check := func(stage string, op Op, got []int64, want []int64) {
		t.Helper()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s op %d: out[%d] = %d, want %d", stage, op, v, got[v], want[v])
			}
		}
	}
	for round := 0; round < 5; round++ {
		stage := fmt.Sprintf("round %d", round)
		got, err := s.Submit(Request{Op: OpRank, Handle: h}).Wait()
		if err != nil {
			t.Fatalf("%s rank: %v", stage, err)
		}
		check(stage, OpRank, got, wantRank)
		got, err = s.Submit(Request{Op: OpScan, Handle: h}).Wait()
		if err != nil {
			t.Fatalf("%s scan: %v", stage, err)
		}
		check(stage, OpScan, got, wantScan)
		got, err = s.Submit(Request{Op: OpScanOp, Handle: h, ScanOp: affineOp, Identity: 5}).Wait()
		if err != nil {
			t.Fatalf("%s scanop: %v", stage, err)
		}
		check(stage, OpScanOp, got, wantOp)
	}
	st := s.Stats()
	if st.ReorderBuilds != 1 {
		t.Errorf("builds = %d, want 1", st.ReorderBuilds)
	}
	// ReorderAfter=2: serves 1 and 2 miss (the second triggers the
	// build), everything after is warm.
	if st.ReorderMisses != 2 || st.ReorderHits != 13 {
		t.Errorf("hits/misses = %d/%d, want 13/2", st.ReorderHits, st.ReorderMisses)
	}
	if st.ReorderBytes != 24*n {
		t.Errorf("cached bytes = %d, want %d", st.ReorderBytes, 24*n)
	}

	// Mutate the list (handle quiescent), invalidate, and re-serve:
	// results must reflect the new values, never the stale layout.
	for i := range l.Value {
		l.Value[i] = int64(i%7) + 100
	}
	h.Invalidate()
	wantScan2 := serverRef(OpScan, l)
	for round := 0; round < 3; round++ {
		got, err := s.Submit(Request{Op: OpScan, Handle: h}).Wait()
		if err != nil {
			t.Fatalf("post-invalidate round %d: %v", round, err)
		}
		check("post-invalidate", OpScan, got, wantScan2)
	}
	if st := s.Stats(); st.ReorderBuilds != 2 || st.ReorderHits != 14 {
		t.Errorf("post-invalidate builds/hits = %d/%d, want 2/14", st.ReorderBuilds, st.ReorderHits)
	}

	// Malformed handle requests.
	if _, err := s.Submit(Request{Op: OpRank, Handle: h, List: l}).Wait(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("handle+list: %v, want ErrBadRequest", err)
	}
	if _, err := s.Submit(Request{Op: OpScanOp, Handle: h}).Wait(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("nil ScanOp: %v, want ErrBadRequest", err)
	}
	other := NewServer(ServerOptions{Procs: 1})
	foreign := other.Register(NewOrderedList(10))
	other.Close()
	if _, err := s.Submit(Request{Op: OpRank, Handle: foreign}).Wait(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("foreign handle: %v, want ErrBadRequest", err)
	}
	// A zero-length handle completes trivially.
	if out, err := s.Submit(Request{Op: OpRank, Handle: s.Register(&List{})}).Wait(); err != nil || len(out) != 0 {
		t.Errorf("empty handle: %v %v, want trivial success", out, err)
	}
}

// TestReorderZeroAllocSteadyState is the warm hit path's acceptance
// contract at both parallelism regimes: once a handle's layout is
// built, the whole submit→hit→complete→recycle cycle — rank memcpy,
// streaming scan, streaming scanop — allocates nothing.
func TestReorderZeroAllocSteadyState(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs-%d", procs), func(t *testing.T) {
			sizes := []int{600, 12000, 120000} // one handle per default bin
			s := NewServer(ServerOptions{
				Procs:        procs,
				ReorderAfter: 1,
				WarmSizes:    sizes,
			})
			defer s.Close()
			handles := make([]*Handle, len(sizes))
			// One Dst per (handle, op): warm hits on one handle are
			// served concurrently (they never take the handle lock), so
			// in-flight requests must not share result storage.
			dsts := make([][]int64, 3*len(sizes))
			for i, n := range sizes {
				handles[i] = s.Register(NewRandomList(n, uint64(n)+1))
				for k := 0; k < 3; k++ {
					dsts[3*i+k] = make([]int64, n)
				}
			}
			tickets := make([]*Ticket, 3*len(sizes))
			trace := func() {
				for i, h := range handles {
					tickets[3*i] = s.Submit(Request{Op: OpRank, Handle: h, Dst: dsts[3*i]})
					tickets[3*i+1] = s.Submit(Request{Op: OpScan, Handle: h, Dst: dsts[3*i+1]})
					tickets[3*i+2] = s.Submit(Request{Op: OpScanOp, Handle: h, ScanOp: affineOp, Identity: 1, Dst: dsts[3*i+2]})
				}
				for _, tk := range tickets {
					if _, err := tk.Wait(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// First traces build the layouts and warm the admission
			// machinery; afterwards every serve is a cache hit.
			for i := 0; i < 3; i++ {
				trace()
			}
			before := s.Stats()
			if allocs := testing.AllocsPerRun(5, trace); allocs != 0 {
				t.Errorf("warm handle trace: %v allocs per %d-request trace, want 0", allocs, len(tickets))
			}
			after := s.Stats()
			measured := after.ReorderHits - before.ReorderHits
			if want := int64(6 * len(tickets)); measured != want {
				t.Errorf("measured traces hit %d times, want %d (every serve warm)", measured, want)
			}
			if after.ReorderMisses != before.ReorderMisses {
				t.Errorf("measured traces missed %d times, want 0", after.ReorderMisses-before.ReorderMisses)
			}
		})
	}
}

// TestHandleInvalidateRace runs Invalidate concurrently with serving
// under -race: the cache-side protocol (version bump, detach,
// publish-with-version-check, refcounted readers) must be race-free,
// and a submit after a mutation+Invalidate must never observe the
// stale layout. List mutation itself is serialized with the handle's
// traffic, per the Handle contract.
func TestHandleInvalidateRace(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2, ReorderAfter: 1})
	defer s.Close()
	const n = 2000
	l := NewRandomList(n, 5)
	h := s.Register(l)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Invalidate()
				}
			}
		}()
	}

	for iter := 0; iter < 200; iter++ {
		if iter%3 == 0 {
			// Handle is quiescent here (previous Wait returned, so no
			// serve or build is in flight): mutate, then invalidate.
			for i := range l.Value {
				l.Value[i] = int64(iter + i%11)
			}
			h.Invalidate()
		}
		want := serverRef(OpScan, l)
		got, err := s.Submit(Request{Op: OpScan, Handle: h}).Wait()
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("iter %d: stale or corrupt scan: out[%d] = %d, want %d", iter, v, got[v], want[v])
			}
		}
	}
	close(stop)
	wg.Wait()
	// The identity still holds with handle traffic in the mix.
	st := s.Stats()
	if st.Submitted != st.Served+st.Rejected+st.Expired+st.Poisoned+st.Shed {
		t.Errorf("accounting identity broken: %+v", st)
	}
}

// TestReorderEviction pins a small budget on a single-shard server
// and rotates more handles through it than fit: the cached bytes must
// never exceed the budget, LRU victims must be evicted (counted), and
// evicted handles must still serve correctly (cold, then rebuilt).
func TestReorderEviction(t *testing.T) {
	const n = 4096
	const layoutBytes = 24 * n
	const budget = 3*layoutBytes + 100 // room for 3 layouts
	s := NewServer(ServerOptions{
		Procs:              2,
		BinBounds:          []int{}, // one unbounded shard owns the whole budget
		ReorderAfter:       1,
		ReorderBudgetBytes: budget,
	})
	defer s.Close()
	const nHandles = 8
	handles := make([]*Handle, nHandles)
	wants := make([][]int64, nHandles)
	for i := range handles {
		l := NewRandomList(n, uint64(i)+21)
		for j := range l.Value {
			l.Value[j] = int64(i*1000 + j%13)
		}
		handles[i] = s.Register(l)
		wants[i] = serverRef(OpScan, l)
	}
	serve := func(i int, stage string) {
		t.Helper()
		got, err := s.Submit(Request{Op: OpScan, Handle: handles[i]}).Wait()
		if err != nil {
			t.Fatalf("%s handle %d: %v", stage, i, err)
		}
		for v := range wants[i] {
			if got[v] != wants[i][v] {
				t.Fatalf("%s handle %d: out[%d] = %d, want %d", stage, i, v, got[v], wants[i][v])
			}
		}
		if st := s.Stats(); st.ReorderBytes > budget {
			t.Fatalf("%s handle %d: cached %d bytes, budget %d", stage, i, st.ReorderBytes, budget)
		}
	}
	// First sweep: every serve builds; once 3 layouts are cached, each
	// further build evicts the least-recently-used one.
	for i := range handles {
		serve(i, "build sweep")
	}
	st := s.Stats()
	if st.ReorderBuilds != nHandles {
		t.Errorf("builds = %d, want %d", st.ReorderBuilds, nHandles)
	}
	if st.ReorderEvictions != nHandles-3 {
		t.Errorf("evictions = %d, want %d", st.ReorderEvictions, nHandles-3)
	}
	if st.ReorderBytes != 3*layoutBytes {
		t.Errorf("cached bytes = %d, want %d (3 layouts)", st.ReorderBytes, 3*layoutBytes)
	}
	// The last three handles are cached; serving them is pure hits.
	for i := nHandles - 3; i < nHandles; i++ {
		serve(i, "warm sweep")
	}
	if st2 := s.Stats(); st2.ReorderHits != st.ReorderHits+3 {
		t.Errorf("warm sweep hits = %d, want %d", st2.ReorderHits, st.ReorderHits+3)
	}
	// An evicted handle falls back to the lane kernels, serves
	// correctly, and rebuilds (evicting again).
	serve(0, "evicted handle")
	st3 := s.Stats()
	if st3.ReorderMisses != st.ReorderMisses+1 {
		t.Errorf("evicted handle missed %d times, want %d", st3.ReorderMisses, st.ReorderMisses+1)
	}
	if st3.ReorderBuilds != nHandles+1 || st3.ReorderEvictions != nHandles-2 {
		t.Errorf("rebuild: builds/evictions = %d/%d, want %d/%d",
			st3.ReorderBuilds, st3.ReorderEvictions, nHandles+1, nHandles-2)
	}
}

// TestReorderSharedBudget: the shards share one budget and one LRU.
// On the default bins, four top-bin and two small-bin layouts fit the
// budget together, though an even split would give the top bin under
// two of its layouts; and a new top-bin layout evicts the server-wide
// least-recently-used layout, whichever bin that layout serves.
func TestReorderSharedBudget(t *testing.T) {
	const nTop, nSmall = 300_000, 1000 // the unbounded and the ≤4096 bin
	const top, small = 24 * nTop, 24 * nSmall
	// Room for the working set, and for a fifth top-bin layout in place
	// of one small-bin layout: each new top-bin layout then evicts
	// exactly one layout, a small-bin or a top-bin one.
	const budget = 5*top + small
	s := NewServer(ServerOptions{Procs: 2, ReorderAfter: 1, ReorderBudgetBytes: budget})
	defer s.Close()
	smalls := []*Handle{s.Register(NewRandomList(nSmall, 1)), s.Register(NewRandomList(nSmall, 2))}
	tops := make([]*Handle, 6)
	for i := range tops {
		tops[i] = s.Register(NewRandomList(nTop, uint64(i)+10))
	}
	serve := func(h *Handle) {
		t.Helper()
		if _, err := s.Submit(Request{Op: OpScan, Handle: h}).Wait(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.ReorderBytes > budget {
			t.Fatalf("cached %d bytes, budget %d", st.ReorderBytes, budget)
		}
	}
	checkLRU := func(stage string, want ...*Handle) {
		t.Helper()
		got := cachedLayouts(s)
		if len(got) != len(want) {
			t.Fatalf("%s: %d layouts cached, want %d", stage, len(got), len(want))
		}
		for i := range want {
			if got[i].h != want[i] {
				t.Fatalf("%s: LRU position %d holds the wrong handle", stage, i)
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, h := range append(smalls[:2:2], tops[:4]...) {
			serve(h)
		}
	}
	st := s.Stats()
	if st.ReorderBuilds != 6 || st.ReorderEvictions != 0 || st.ReorderHits != 6 || st.ReorderMisses != 6 {
		t.Fatalf("working set: builds/evictions/hits/misses = %d/%d/%d/%d, want 6/0/6/6",
			st.ReorderBuilds, st.ReorderEvictions, st.ReorderHits, st.ReorderMisses)
	}
	if st.ReorderBytes != 4*top+2*small {
		t.Fatalf("working set: cached %d bytes, want %d", st.ReorderBytes, 4*top+2*small)
	}
	// smalls[0] is the least recently used: a fifth top-bin layout
	// evicts it and nothing else.
	serve(tops[4])
	checkLRU("fifth top-bin layout", tops[4], tops[3], tops[2], tops[1], tops[0], smalls[1])
	// A hit moves smalls[1] to the front, so tops[0] is now the least
	// recently used.
	serve(smalls[1])
	serve(tops[5])
	checkLRU("sixth top-bin layout", tops[5], smalls[1], tops[4], tops[3], tops[2], tops[1])
	if st := s.Stats(); st.ReorderBuilds != 8 || st.ReorderEvictions != 2 {
		t.Fatalf("builds/evictions = %d/%d, want 8/2", st.ReorderBuilds, st.ReorderEvictions)
	}
}

// cachedLayouts returns the layouts the server's reorder cache holds,
// most recently used first.
func cachedLayouts(s *Server) []*layout {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	var lays []*layout
	for lay := s.cache.head; lay != nil; lay = lay.lruNext {
		lays = append(lays, lay)
	}
	return lays
}

// TestReorderBudgetCountsEverything: what the cache books is what it
// holds. Through an eviction sweep over two sizes, the governor's
// ClassReorder equals ReorderBytes, and the attached layouts' arrays,
// counted by capacity, hold exactly those bytes: no build keeps a
// larger layout's arrays, and no evicted layout's arrays stay parked.
func TestReorderBudgetCountsEverything(t *testing.T) {
	const big, small = 8192, 1024
	const budget = 2 * 24 * big
	gov := NewGovernor(0)
	s := NewServer(ServerOptions{
		Procs:              2,
		BinBounds:          []int{},
		ReorderAfter:       1,
		ReorderBudgetBytes: budget,
		Governor:           gov,
	})
	defer s.Close()
	for i := 0; i < 12; i++ {
		n := small
		if i%3 == 0 {
			n = big
		}
		h := s.Register(NewRandomList(n, uint64(i)+40))
		if _, err := s.Submit(Request{Op: OpScan, Handle: h}).Wait(); err != nil {
			t.Fatalf("handle %d: %v", i, err)
		}
		st := s.Stats()
		if used := gov.ClassUsed(govern.ClassReorder); used != st.ReorderBytes {
			t.Fatalf("handle %d: governor books %d reorder bytes, ReorderBytes %d", i, used, st.ReorderBytes)
		}
		var held int64
		for _, lay := range cachedLayouts(s) {
			held += 8 * int64(cap(lay.rank)+cap(lay.perm)+cap(lay.seq))
		}
		if held != st.ReorderBytes {
			t.Fatalf("handle %d: cached layouts hold %d bytes, ReorderBytes %d", i, held, st.ReorderBytes)
		}
	}
	if st := s.Stats(); st.ReorderEvictions == 0 {
		t.Fatal("the sweep evicted nothing")
	}
}

// TestReorderRankOnlyHandle: a handle whose list has no values serves
// ranks, cold and then from a rank-only layout, and refuses scans at
// admission as a bare list does.
func TestReorderRankOnlyHandle(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 2, ReorderAfter: 1})
	defer s.Close()
	const n = 2048
	l := NewRandomList(n, 3)
	l.Value = nil
	want := serverRef(OpRank, l)
	h := s.Register(l)
	for i := 0; i < 3; i++ {
		got, err := s.Submit(Request{Op: OpRank, Handle: h}).Wait()
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("rank %d: out[%d] = %d, want %d", i, v, got[v], want[v])
			}
		}
	}
	for _, req := range []Request{{Op: OpScan, Handle: h}, {Op: OpScanOp, Handle: h, ScanOp: affineOp}} {
		if _, err := s.Submit(req).Wait(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("op %d on a rank-only handle: %v, want ErrBadRequest", req.Op, err)
		}
	}
	st := s.Stats()
	if st.Served != 3 || st.Rejected != 2 || st.Poisoned != 0 {
		t.Errorf("served/rejected/poisoned = %d/%d/%d, want 3/2/0", st.Served, st.Rejected, st.Poisoned)
	}
	if st.ReorderBuilds != 1 || st.ReorderHits != 2 || st.ReorderBytes != 16*n {
		t.Errorf("builds/hits/bytes = %d/%d/%d, want 1/2/%d", st.ReorderBuilds, st.ReorderHits, st.ReorderBytes, 16*n)
	}
}

// BenchmarkReorder measures the reorder cache's economics end to end
// through the Server at three sizes: the cold rank a handle pays
// before the cache kicks in (lane kernels), the one-time re-layout
// cost (rank + inversion + gather, via the public Reorder helper),
// and the warm hit path for all three ops (sequential kernels; rank
// is a memcpy). cmd/benchjson turns this into BENCH_reorder.json in
// CI.
func BenchmarkReorder(b *testing.B) {
	for _, ln := range []int{14, 18, 22} {
		n := 1 << ln
		b.Run(fmt.Sprintf("n=2^%d", ln), func(b *testing.B) {
			l := NewRandomList(n, uint64(n)+7)
			dst := make([]int64, n)
			b.Run("cold-rank", func(b *testing.B) {
				s := NewServer(ServerOptions{Procs: 4, ReorderAfter: -1, WarmSizes: []int{n}})
				defer s.Close()
				h := s.Register(l)
				req := Request{Op: OpRank, Handle: h, Dst: dst}
				if _, err := s.Submit(req).Wait(); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(8 * int64(n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Submit(req).Wait(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("reorder-build", func(b *testing.B) {
				b.SetBytes(8 * int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _ = Reorder(l)
				}
			})
			for _, leg := range []struct {
				name string
				req  Request
			}{
				{"warm-rank", Request{Op: OpRank, Dst: dst}},
				{"warm-scan", Request{Op: OpScan, Dst: dst}},
				{"warm-scanop", Request{Op: OpScanOp, ScanOp: affineOp, Identity: 1, Dst: dst}},
			} {
				b.Run(leg.name, func(b *testing.B) {
					// The budget must hold the largest layout (24n = 96 MiB
					// at 2^22), or the "warm" leg silently measures the
					// cold path.
					s := NewServer(ServerOptions{
						Procs: 4, ReorderAfter: 1,
						ReorderBudgetBytes: 512 << 20, WarmSizes: []int{n},
					})
					defer s.Close()
					req := leg.req
					req.Handle = s.Register(l)
					for i := 0; i < 2; i++ { // build, then confirm warm
						if _, err := s.Submit(req).Wait(); err != nil {
							b.Fatal(err)
						}
					}
					if st := s.Stats(); st.ReorderHits == 0 {
						b.Fatalf("warm leg is not hitting the cache: %+v", st)
					}
					b.SetBytes(8 * int64(n))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := s.Submit(req).Wait(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
