package main

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"listrank"
	"listrank/internal/wire"
)

// listPool lends private copies of one list to in-flight Server
// requests: the engines mutate a request's list in place while serving
// it, so no two in-flight requests may share one, and a copy must never
// be taken from a list that is in flight. Copies are made on demand
// (during warm-up, in practice) from the original, which is lent out
// itself only when one request is in flight and no copy is ever made.
type listPool struct {
	mu   sync.Mutex
	src  *problem
	free []*listrank.List
}

func (lp *listPool) get() *listrank.List {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if k := len(lp.free); k > 0 {
		l := lp.free[k-1]
		lp.free = lp.free[:k-1]
		return l
	}
	return copyList(&lp.src.list)
}

func (lp *listPool) put(l *listrank.List) {
	lp.mu.Lock()
	lp.free = append(lp.free, l)
	lp.mu.Unlock()
}

func copyList(l *listrank.List) *listrank.List {
	return &listrank.List{Next: slices.Clone(l.Next), Value: slices.Clone(l.Value), Head: l.Head}
}

// serverRung replays the request sequence through an in-process Server
// with default options at the workload's in-flight count, Submit →
// Wait. Tagged requests go to handles registered once per list and op
// (as listrankd registers list_ids), the rest carry bare lists.
func (l *ladder) serverRung() {
	rung := l.tr.open("ladder.server", 0, -1)
	defer l.tr.close(rung)
	srv := listrank.NewServer(listrank.ServerOptions{})
	defer srv.Close()
	pools := make([]listPool, len(l.probs))
	handles := make([][2]*listrank.Handle, len(l.probs))
	for i, p := range l.probs {
		pools[i].src = p
		if l.inflight == 1 {
			pools[i].free = []*listrank.List{&p.list}
		}
	}
	for _, rs := range l.seq {
		if rs.tagged && handles[rs.list][0] == nil {
			for op := range handles[rs.list] {
				handles[rs.list][op] = srv.Register(copyList(&l.probs[rs.list].list))
			}
		}
	}
	dsts := make([][]int64, l.inflight)
	for w := range dsts {
		dsts[w] = make([]int64, l.maxN)
	}

	type rec struct{ submit, lat time.Duration }
	// loop runs seq at least once and for d, returning what served right.
	loop := func(seq []reqSpec, d time.Duration, parent int32) ([]rec, int64, time.Duration) {
		var failed atomic.Int64
		per := make([][]rec, l.inflight)
		elapsed := closedLoop(l.inflight, int64(len(seq)), d, func(w int, i int64) {
			rs := seq[i%int64(len(seq))]
			p := l.probs[rs.list]
			op := listrank.OpRank
			if rs.scan {
				op = listrank.OpScan
			}
			req := listrank.Request{Op: op, Dst: dsts[w][:p.n()]}
			var bare *listrank.List
			if rs.tagged {
				req.Handle = handles[rs.list][op]
			} else {
				bare = pools[rs.list].get()
				req.List = bare
			}
			t0 := time.Now()
			tk := srv.Submit(req)
			t1 := time.Now()
			res, err := tk.Wait()
			t2 := time.Now()
			if bare != nil {
				pools[rs.list].put(bare)
			}
			if err != nil || !p.matches(res, rs.scan) {
				failed.Add(1)
				return
			}
			if parent != 0 {
				id := l.tr.add("server.request", parent, i, t0, t2)
				l.tr.add("server.Submit", id, i, t0, t1)
			}
			per[w] = append(per[w], rec{t1.Sub(t0), t2.Sub(t0)})
		})
		var all []rec
		for _, p := range per {
			all = append(all, p...)
		}
		return all, failed.Load(), elapsed
	}

	// Warm-up: every distinct request in the sequence, enough times for
	// the reorder cache to build the tagged lists' layouts.
	var warm []reqSpec
	seen := map[reqSpec]bool{}
	for _, rs := range l.seq {
		if !seen[rs] {
			seen[rs] = true
			warm = append(warm, rs)
		}
	}
	passes := 1
	if slices.ContainsFunc(l.seq, func(rs reqSpec) bool { return rs.tagged }) {
		passes = warmPasses
	}
	for range passes {
		_, failed, _ := loop(warm, 0, 0)
		l.attempted += int64(len(warm))
		l.failed += failed
	}

	cpu0 := selfCPU()
	t0 := readTicks()
	recs, failed, elapsed := loop(l.seq, l.rung, rung)
	keep := 1 - stealShare(t0, readTicks())
	cpu := selfCPU() - cpu0
	n := int64(len(recs)) + failed
	l.attempted += n
	l.failed += failed
	lats := make([]time.Duration, len(recs))
	subs := make([]time.Duration, len(recs))
	for i, r := range recs {
		lats[i], subs[i] = r.lat, r.submit
	}
	l.set("server.rps", float64(len(recs))/(keep*elapsed.Seconds()), "1/s")
	l.set("server.p50_us", keep*us(latencyQuantile(lats, failed, 0.50, elapsed)), "us")
	l.set("server.p99_us", keep*us(latencyQuantile(lats, failed, 0.99, elapsed)), "us")
	l.set("server.submit_us", keep*us(median(subs)), "us")
	l.serverCPUUs = us(cpu) / float64(max(n, 1))
	l.rep.note("server rung: %d requests, %d in flight, in-process Server with default options; %.2f us CPU/request in this process", n, l.inflight, l.serverCPUUs)
}

// wireRung times wire.DecodeRequest and wire.AppendResponse on the
// workload's frames and answers, in sequence order.
func (l *ladder) wireRung() {
	rung := l.tr.open("ladder.wire", 0, -1)
	defer l.tr.close(rung)
	var buf, check wire.Buffer
	var resp []byte
	ans := make([]int64, l.maxN)
	var bytes, elems int64
	for _, rs := range l.seq {
		n := l.probs[rs.list].n()
		bytes += int64(len(l.frames[rs.list][rs.frame()]) + wire.RespLen(n))
		elems += int64(n)
	}
	var dec, enc, perReq []float64
	keep := l.passes(1, func() {
		var td, te time.Duration
		for i, rs := range l.seq {
			p := l.probs[rs.list]
			n := p.n()
			a := ans[:n]
			want := p.rank
			if rs.scan {
				want = p.scan
			}
			for v, x := range want {
				a[v] = int64(x)
			}
			frame := l.frames[rs.list][rs.frame()]
			t0 := time.Now()
			h, err := wire.DecodeRequest(frame, &buf, wire.DefaultMaxElems)
			t1 := time.Now()
			resp = wire.AppendResponse(resp[:0], a)
			t2 := time.Now()
			td += t1.Sub(t0)
			te += t2.Sub(t1)
			l.tr.add("wire.DecodeRequest", rung, int64(i), t0, t1)
			l.tr.add("wire.AppendResponse", rung, int64(i), t1, t2)

			l.attempted++
			got, rerr := wire.DecodeResponse(resp, &check, wire.DefaultMaxElems)
			ok := err == nil && rerr == nil && h.N == n && int64(h.Head) == p.list.Head &&
				slices.Equal(buf.Next[:n], p.list.Next) && slices.Equal(got, a)
			if ok && rs.scan {
				ok = slices.Equal(buf.Value[:n], p.list.Value)
			}
			if !ok {
				l.failed++
			}
		}
		dec = append(dec, float64(td)/float64(elems))
		enc = append(enc, float64(te)/float64(elems))
		perReq = append(perReq, us(td+te)/float64(len(l.seq)))
	})
	l.set("wire.decode_ns_per_elem", keep*medianF(dec), "ns")
	l.set("wire.encode_ns_per_elem", keep*medianF(enc), "ns")
	l.set("wire.bytes_per_req", float64(bytes)/float64(len(l.seq)), "count")
	l.wireUsPerReq = keep * medianF(perReq)
}

// releaseMemory returns a finished rung's working memory to the OS
// before the next rung allocates its own.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
