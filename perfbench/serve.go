package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"listrank/internal/wire"
)

// serveSpec is one serving workload: listrankd over loopback, driven
// in a closed loop with a fixed number of requests in flight over
// nproc h2c connections from this one process.
type serveSpec struct {
	lists, minN, maxN int
	inflight          int
	tagged            bool // half the requests are tagged frames with stable list_ids
}

var (
	serveSmall = serveSpec{lists: 64, minN: 1 << 8, maxN: 1 << 14, inflight: 32}
	serveReuse = serveSpec{lists: 16, minN: 1 << 16, maxN: 1 << 20, inflight: 4, tagged: true}
)

const (
	zipfS     = 1.4
	seqRounds = 16
	// warmPasses is how often set-up sends every distinct frame: the
	// reorder cache builds a handle's layout on its second serve, so
	// three passes leave every tagged list cached (budget permitting).
	warmPasses = 3
	// warmLoop is how long the closed loop runs after the passes and
	// before timing, so connections, arenas and GC reach steady state.
	warmLoop = time.Second
)

// Frame kinds per list.
const (
	frRank = iota
	frScan
	frTagRank
	frTagScan
)

func (s reqSpec) frame() int {
	f := frRank
	if s.scan {
		f = frScan
	}
	if s.tagged {
		f += 2
	}
	return f
}

// inputs is a serve workload's generated data: the lists with their
// answers, every frame pre-encoded, and the request sequence.
type inputs struct {
	probs  []*problem
	frames [][4][]byte
	seq    []reqSpec
	round  []reqSpec // the first round of seq: every request kind in its share
}

func genInputs(spec serveSpec, seed uint64) (*inputs, error) {
	sizes := zipfSizes(newRand(seed, streamSizes), spec.lists, spec.minN, spec.maxN, zipfS)
	rl := newRand(seed, streamLists)
	perm := make([]int64, slices.Max(sizes))
	in := &inputs{}
	for i, n := range sizes {
		p := &problem{}
		p.fill(n, rl, perm)
		if err := p.solve(); err != nil {
			return nil, err
		}
		l := &p.list
		var f [4][]byte
		var err error
		if f[frRank], err = wire.AppendRequest(nil, wire.OpRank, 0, l.Head, l.Next, nil); err != nil {
			return nil, err
		}
		if f[frScan], err = wire.AppendRequest(nil, wire.OpScan, 0, l.Head, l.Next, l.Value); err != nil {
			return nil, err
		}
		if spec.tagged {
			// Rank and scan frames use disjoint id spaces: an id pins the
			// whole list, values included, and rank frames carry none.
			if f[frTagRank], err = wire.AppendRequestTagged(nil, wire.OpRank, 0, l.Head, l.Next, nil, uint32(i+1), 1); err != nil {
				return nil, err
			}
			if f[frTagScan], err = wire.AppendRequestTagged(nil, wire.OpScan, 0, l.Head, l.Next, l.Value, uint32(i+1)|1<<31, 1); err != nil {
				return nil, err
			}
		}
		in.probs = append(in.probs, p)
		in.frames = append(in.frames, f)
	}
	in.seq = buildSequence(newRand(seed, streamSequence), spec.lists, seqRounds, spec.tagged)
	in.round = in.seq[:len(in.seq)/seqRounds]
	return in, nil
}

// warmList sends every distinct frame warmPasses times, pass by pass.
func (in *inputs) warmList(tagged bool) []reqSpec {
	var w []reqSpec
	for range warmPasses {
		for i := range in.probs {
			for _, t := range []bool{false, true} {
				if t && !tagged {
					continue
				}
				w = append(w, reqSpec{list: int32(i), tagged: t}, reqSpec{list: int32(i), scan: true, tagged: t})
			}
		}
	}
	return w
}

// client is the load generator: one http.Client per h2c connection.
type client struct {
	addr  string
	hcs   []*http.Client
	trs   []*http.Transport
	dials atomic.Int64
}

// newClient opens conns h2c transports; each keeps one connection and
// multiplexes its share of the in-flight requests over it.
func newClient(addr string, conns int) *client {
	c := &client{addr: addr}
	var d net.Dialer
	for range conns {
		tr := &http.Transport{
			DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
				c.dials.Add(1)
				return d.DialContext(ctx, network, a)
			},
			DisableCompression: true,
			// One connection per transport: without the cap, requests
			// that start together on a fresh transport each dial their own.
			MaxConnsPerHost: 1,
		}
		tr.Protocols = new(http.Protocols)
		tr.Protocols.SetUnencryptedHTTP2(true)
		c.trs = append(c.trs, tr)
		c.hcs = append(c.hcs, &http.Client{Transport: tr})
	}
	return c
}

func (c *client) close() {
	for _, tr := range c.trs {
		tr.CloseIdleConnections()
	}
}

// shot is one request's outcome as the client saw it.
type shot struct {
	start   time.Time
	lat     time.Duration
	eff     time.Duration // lat without the time stolen from the machine
	outcome string        // X-Outcome, "transport", or "not-h2"
	wrong   bool          // served, but the answer differs from the serial walk
	scan    bool
	tagged  bool
	n       int
}

func (s shot) ok() bool { return s.outcome == "served" && !s.wrong }

var urls = [2]string{"/rank", "/scan"}

// do sends one request and reads and checks the answer. Latency runs
// from the send to the last response byte; the check is not timed.
func (c *client) do(hc *http.Client, in *inputs, rs reqSpec, wb *wire.Buffer, tr *tracer, parent int32, id int64) shot {
	frame := in.frames[rs.list][rs.frame()]
	p := in.probs[rs.list]
	sh := shot{scan: rs.scan, tagged: rs.tagged, n: p.n()}
	op := 0
	if rs.scan {
		op = 1
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+c.addr+urls[op], bytes.NewReader(frame))
	if err != nil {
		sh.outcome = "transport"
		return sh
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	sh.start = time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		sh.lat = time.Since(sh.start)
		sh.outcome = "transport"
		return sh
	}
	head := time.Now()
	sh.outcome = resp.Header.Get("X-Outcome")
	var got []int64
	if sh.outcome == "served" {
		got, err = wire.ReadResponse(resp.Body, wb, wire.DefaultMaxElems)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	end := time.Now()
	sh.lat = end.Sub(sh.start)
	switch {
	case err != nil:
		sh.outcome = "transport"
	case resp.ProtoMajor != 2:
		sh.outcome = "not-h2"
	case sh.outcome == "served":
		sh.wrong = !p.matches(got, rs.scan)
	}
	if tr != nil {
		rid := tr.add("listrankd.request", parent, id, sh.start, end)
		tr.add("client.until_headers", rid, id, sh.start, head)
		tr.add("client.read_response", rid, id, head, end)
	}
	return sh
}

// books is the client's tally of every request one daemon received,
// compared with the daemon's /metrics at the end.
type books struct {
	byOutcome map[string]int64
	tagged    int64
	wrong     int64
}

func (b *books) add(shots []shot) {
	for _, s := range shots {
		b.byOutcome[s.outcome]++
		if s.tagged {
			b.tagged++
		}
		if s.wrong {
			b.wrong++
		}
	}
}

// serveRun is one booted daemon with its client and inputs.
type serveRun struct {
	cfg   config
	spec  serveSpec
	in    *inputs
	d     *daemon
	cl    *client
	bufs  []wire.Buffer
	books books
	reqID atomic.Int64
}

// loopResult is one closed-loop window.
type loopResult struct {
	shots        []shot
	elapsed, eff time.Duration // wall, and wall less stolen time
	steal        float64       // steal share over the window
}

// closedLoop runs workers goroutines that each take the next index and
// call do with it as soon as their previous call returns, until at
// least n indices were taken and d has passed; calls already started
// complete. It returns the elapsed time.
func closedLoop(workers int, n int64, d time.Duration, do func(w int, i int64)) time.Duration {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n && !time.Now().Before(deadline) {
					return
				}
				do(w, i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// loop runs the closed loop over seq with spec.inflight requests in
// flight for d, or through seq exactly once when d is zero.
func (s *serveRun) loop(seq []reqSpec, d time.Duration, tr *tracer, name string) loopResult {
	win := tr.open(name, 0, -1)
	defer tr.close(win)
	per := make([][]shot, s.spec.inflight)
	n := int64(0)
	if d == 0 {
		n = int64(len(seq))
	}
	clk := startStealClock()
	start := time.Now()
	closedLoop(s.spec.inflight, n, d, func(w int, i int64) {
		rs := seq[i%int64(len(seq))]
		hc := s.cl.hcs[w%len(s.cl.hcs)]
		per[w] = append(per[w], s.cl.do(hc, s.in, rs, &s.bufs[w], tr, win, s.reqID.Add(1)))
	})
	end := time.Now()
	clk.stop()
	res := loopResult{elapsed: end.Sub(start), eff: clk.effective(start, end), steal: clk.share(start, end)}
	for _, p := range per {
		for _, sh := range p {
			sh.eff = clk.effective(sh.start, sh.start.Add(sh.lat))
			res.shots = append(res.shots, sh)
		}
	}
	s.books.add(res.shots)
	return res
}

// boot generates the inputs, starts a daemon, connects and warms up:
// every distinct frame warmPasses times, then warmLoop of the closed
// loop. It is the whole set-up of a serve run.
func (s *serveRun) boot() error {
	in, err := genInputs(s.spec, s.cfg.seed)
	if err != nil {
		return err
	}
	s.in = in
	s.books = books{byOutcome: map[string]int64{}}
	if s.d, err = bootDaemon(s.cfg); err != nil {
		return err
	}
	s.cl = newClient(s.d.addr, runtime.NumCPU())
	s.bufs = make([]wire.Buffer, s.spec.inflight)
	for _, r := range []loopResult{s.loop(in.warmList(s.spec.tagged), 0, nil, "warm"), s.loop(in.seq, warmLoop, nil, "warm")} {
		for _, sh := range r.shots {
			if !sh.ok() {
				return fmt.Errorf("%w: warm-up request failed: outcome %s wrong=%v", errIncorrect, sh.outcome, sh.wrong)
			}
		}
	}
	return nil
}

// finish checks the daemon's books against the client's tallies, as
// listrankc -check does, then stops it with SIGTERM and requires a
// clean drain (exit 0: identity balanced, no leaked wire buffers or
// goroutines). It also checks the connection count.
func (s *serveRun) finish(rep *report) error {
	var problems []string
	m, err := scrape(s.cl.hcs[0], s.d.addr)
	if err != nil {
		problems = append(problems, err.Error())
	} else {
		sub := m["listrank_submitted_total"]
		sum := m["listrank_served_total"] + m["listrank_rejected_total"] + m["listrank_expired_total"] + m["listrank_poisoned_total"] + m["listrank_shed_total"]
		if sub != sum {
			problems = append(problems, fmt.Sprintf("identity: submitted %d != %d", sub, sum))
		}
		for _, b := range []string{"served", "rejected", "expired", "poisoned", "shed"} {
			if got, want := m["listrank_"+b+"_total"], s.books.byOutcome[b]; got != want {
				problems = append(problems, fmt.Sprintf("listrank_%s_total %d, client counted %d", b, got, want))
			}
		}
		for name, want := range map[string]int64{
			"listrankd_tagged_requests_total": s.books.tagged,
			"listrankd_decode_errors_total":   0,
			"listrankd_wire_buffers_live":     0,
		} {
			if got := m[name]; got != want {
				problems = append(problems, fmt.Sprintf("%s %d, want %d", name, got, want))
			}
		}
	}
	if n := s.books.byOutcome["transport"] + s.books.byOutcome["not-h2"]; n > 0 {
		problems = append(problems, fmt.Sprintf("%d transport errors or non-h2c responses", n))
	}
	if s.books.wrong > 0 {
		problems = append(problems, fmt.Sprintf("%d wrong answers", s.books.wrong))
	}
	if dials, want := s.cl.dials.Load(), int64(len(s.cl.hcs)); dials != want {
		problems = append(problems, fmt.Sprintf("client dialed %d connections, want %d", dials, want))
	}
	s.cl.close()
	code, log, err := s.d.stop(60 * time.Second)
	switch {
	case err != nil:
		problems = append(problems, err.Error())
	case code != 0:
		problems = append(problems, fmt.Sprintf("listrankd drain exit %d:\n%s", code, log))
	case !strings.Contains(log, "drained clean"):
		problems = append(problems, "listrankd exited 0 without reporting a clean drain")
	}
	if len(problems) > 0 {
		return fmt.Errorf("%w: %s", errIncorrect, strings.Join(problems, "; "))
	}
	rep.check("books: daemon counters equal the client's tallies (%d served, %d tagged); drain exit 0; %d h2c connections",
		s.books.byOutcome["served"], s.books.tagged, len(s.cl.hcs))
	return nil
}

// serveMetrics turns one window into the end-to-end metrics, from
// steal-corrected times, or from raw wall times with raw set.
func serveMetrics(r loopResult, window time.Duration, raw bool) (map[string]metric, int64, int64) {
	var ok []time.Duration
	var failed int64
	var latSum [2]time.Duration
	var elems [2]int64
	elapsed := r.eff
	if raw {
		elapsed = r.elapsed
	}
	for _, s := range r.shots {
		if !s.ok() {
			failed++
			continue
		}
		lat := s.eff
		if raw {
			lat = s.lat
		}
		ok = append(ok, lat)
		op := 0
		if s.scan {
			op = 1
		}
		latSum[op] += lat
		elems[op] += int64(s.n)
	}
	attempted := int64(len(r.shots))
	m := map[string]metric{
		"rps":              {float64(len(ok)) / elapsed.Seconds(), "1/s"},
		"p50_ms":           {ms(latencyQuantile(ok, failed, 0.50, window)), "ms"},
		"p99_ms":           {ms(latencyQuantile(ok, failed, 0.99, window)), "ms"},
		"ok_frac":          {float64(attempted-failed) / float64(max(attempted, 1)), "ratio"},
		"rank_ns_per_elem": {float64(latSum[0]) / float64(max(elems[0], 1)), "ns"},
		"scan_ns_per_elem": {float64(latSum[1]) / float64(max(elems[1], 1)), "ns"},
	}
	return m, attempted, failed
}

func runServe(cfg config, spec serveSpec) (report, error) {
	// The client's garbage is per-request HTTP state over a small live
	// heap; collecting it less often leaves more of the shared CPUs to
	// the daemon under test.
	debug.SetGCPercent(400)
	rep := newReport()
	s := &serveRun{cfg: cfg, spec: spec}
	setup, err := timeSetups(cfg.start, s.boot, func() error { return s.finish(&rep) })
	if err != nil {
		return rep, err
	}

	window := cfg.window
	if cfg.trace {
		window = cfg.window / 4
	}
	r := s.loop(s.in.seq, window, nil, "window")
	rss, err := vmHWM(s.d.pid())
	if err != nil {
		return rep, err
	}
	m, attempted, failed := serveMetrics(r, window, false)
	rawNote(&rep, r, window)
	rep.e2e = m
	rep.e2e["setup_s"] = setup
	rep.e2e["rss_peak_mb"] = metric{rss, "MiB"}
	rep.attempted, rep.failed = attempted, failed

	if cfg.trace {
		if err := s.traceRun(&rep, window); err != nil {
			return rep, err
		}
	}
	if err := s.finish(&rep); err != nil {
		return rep, err
	}
	if rep.failed > 0 {
		return rep, fmt.Errorf("%w: %d of %d requests failed", errIncorrect, rep.failed, rep.attempted)
	}
	return rep, nil
}

// traceRun measures the same window again with spans recorded, with
// the daemon's and the client's CPU and /metrics deltas over it, then
// replays the inputs down the in-process ladder.
func (s *serveRun) traceRun(rep *report, window time.Duration) error {
	rep.spans = newTracer(s.cfg.start)
	before, err := scrape(s.cl.hcs[0], s.d.addr)
	if err != nil {
		return err
	}
	dcpu0, err := procCPU(s.d.pid())
	if err != nil {
		return err
	}
	ccpu0 := selfCPU()
	r := s.loop(s.in.seq, window, rep.spans, "window.traced")
	ccpu := selfCPU() - ccpu0
	dcpu1, err := procCPU(s.d.pid())
	if err != nil {
		return err
	}
	after, err := scrape(s.cl.hcs[0], s.d.addr)
	if err != nil {
		return err
	}
	rss, err := vmHWM(s.d.pid())
	if err != nil {
		return err
	}
	m, attempted, failed := serveMetrics(r, window, false)
	rep.traced = m
	rep.traced["setup_s"] = rep.e2e["setup_s"]
	rep.traced["rss_peak_mb"] = metric{rss, "MiB"}
	rep.attempted += attempted
	rep.failed += failed

	delta := func(k string) int64 { return after[k] - before[k] }
	served := max(delta("listrank_served_total"), 1)
	daemonUs := us(dcpu1-dcpu0) / float64(served)
	L := rep.layers
	L["listrankd.cpu_us_per_req"] = metric{daemonUs, "us"}
	L["loadgen.cpu_us_per_req"] = metric{us(ccpu) / float64(max(attempted, 1)), "us"}
	L["server.coalesce_ratio"] = metric{float64(served) / float64(max(delta("listrank_dispatches_total"), 1)), "ratio"}
	hits, misses := delta("listrank_reorder_hits_total"), delta("listrank_reorder_misses_total")
	L["server.reorder_hit_ratio"] = metric{float64(hits) / float64(max(hits+misses, 1)), "ratio"}
	L["server.reorder_builds"] = metric{float64(delta("listrank_reorder_builds_total")), "count"}
	L["server.reorder_evictions"] = metric{float64(delta("listrank_reorder_evictions_total")), "count"}
	rep.note("listrankd.cpu_us_per_req = daemon utime+stime over the traced window (%v) / %d served", dcpu1-dcpu0, served)
	rep.note("server.reorder_hit_ratio = %d hits / (%d hits + %d misses) over the traced window (/metrics deltas)", hits, hits, misses)

	lad := newLadder(s.cfg, rep, s.in.probs, s.in.round, s.spec.inflight, s.in.frames)
	if err := lad.run(window * 2); err != nil {
		return err
	}
	// The daemon's own share: its CPU per request minus the in-process
	// Server rung's and the wire rung's, leaving HTTP and the handler.
	self := daemonUs - lad.serverCPUUs - lad.wireUsPerReq
	L["listrankd.self_us_per_req"] = metric{self, "us"}
	rep.note("listrankd.self_us_per_req = listrankd.cpu_us_per_req %.2f - server rung %.2f - wire rung %.2f (us/request; HTTP and handler)",
		daemonUs, lad.serverCPUUs, lad.wireUsPerReq)
	return nil
}

// rawNote reports a window's steal share and its uncorrected figures.
func rawNote(rep *report, r loopResult, window time.Duration) {
	m, _, _ := serveMetrics(r, window, true)
	rep.note("steal share %.3f over the window; uncorrected: rps %.6g, p50_ms %.6g, p99_ms %.6g, rank_ns_per_elem %.6g, scan_ns_per_elem %.6g",
		r.steal, m["rps"].Value, m["p50_ms"].Value, m["p99_ms"].Value, m["rank_ns_per_elem"].Value, m["scan_ns_per_elem"].Value)
}
