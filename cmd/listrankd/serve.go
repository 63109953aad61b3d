package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"io"

	"listrank"
	"listrank/internal/arena"
	"listrank/internal/fleet"
	"listrank/internal/govern"
	"listrank/internal/wire"
)

// daemon is the network front of a listrank.Server: it decodes wire
// frames into pooled arenas, maps wire deadlines and client
// disconnects onto the serving layer's cancellation machinery,
// applies per-tenant quotas ahead of the fleet's backpressure, and
// exports everything it and the fleet count through /metrics.
type daemon struct {
	srv        *listrank.Server
	maxElems   int
	quotaRate  float64
	quotaBurst float64

	// Overload-protection knobs (see runServe's flags). gov is the
	// process memory governor the daemon reports wire-buffer bytes to
	// and renders in /metrics; retryAfter is the integer seconds sent
	// as Retry-After on every 429/503; bodyStall arms the body-read
	// progress watchdog (0 = off); maxConnInflight caps per-connection
	// concurrent requests (0 = off; only bites under h2c).
	gov             *govern.Governor
	retryAfter      int
	bodyStall       time.Duration
	maxConnInflight int
	// conns, when the -max-conns listener wrap is active, exposes the
	// open-connection gauge.
	conns *limitListener

	// bufs recycles per-request decode/encode state: a connection
	// checks a buffer out per request and returns it after the
	// response is flushed, so a warm daemon decodes request bodies
	// straight into fleet-owned arenas — no per-request []int64 (or
	// intermediate []int32) allocations, the wire-level extension of
	// the fleet's zero-allocation steady state.
	bufs fleet.FreeList[*connBuf]

	// quotas maps tenant → token bucket, created on first sight. The
	// bucket is checked BEFORE Submit: a tenant over its quota is
	// rejected at the door and never occupies an admission-queue slot
	// (see DESIGN.md, "The wire").
	quotaMu sync.Mutex
	quotas  map[string]*fleet.TokenBucket

	// registry maps wire list_id → registered list, created the first
	// time a tagged frame names the id. The daemon copies the frame's
	// arrays once (frames decode into per-request recycled arenas, but
	// a Server handle needs storage that outlives any one request) and
	// registers the copy with the fleet, so repeat tagged traffic hits
	// the Server's reorder cache. A tagged frame whose list_version
	// differs from the registered one invalidates the old handle and
	// re-registers from its own payload; in-flight requests on the old
	// handle keep the old storage. At most maxHandles ids are held —
	// frames naming new ids beyond that are served anonymously.
	regMu      sync.Mutex
	registry   map[uint32]*regList
	maxHandles int

	started time.Time

	// HTTP-level counters, exported as listrankd_* metrics. The four
	// outcome counters tally what clients were told (the X-Outcome
	// response header) and must agree exactly with the fleet's
	// ServerStats failure-domain counters — the end-to-end accounting
	// identity the serve-e2e CI job asserts over the wire.
	inflight      atomic.Int64
	nRank, nScan  atomic.Int64
	badFrames     atomic.Int64
	quotaRejected atomic.Int64
	served        atomic.Int64
	rejected      atomic.Int64
	expired       atomic.Int64
	poisoned      atomic.Int64
	shed          atomic.Int64
	bytesIn       atomic.Int64
	bytesOut      atomic.Int64

	// Overload counters: evicted counts slow clients cut off by the
	// body-read watchdog (before Submit, like decode errors);
	// throttled counts requests bounced by the per-connection
	// in-flight cap. bufsLive is the checked-out pooled-buffer gauge —
	// it must read 0 at every quiescent point or a handler path leaked
	// a wire.Buffer (the slow-client tests assert exactly this).
	evicted   atomic.Int64
	throttled atomic.Int64
	bufsLive  atomic.Int64

	// Handle-registry counters: tagged counts frames that carried a
	// list_id, registered counts registrations (first sight of an id,
	// or a version bump replacing one), fallback counts tagged frames
	// served anonymously because the registry was at max-handles.
	tagged     atomic.Int64
	registered atomic.Int64
	fallback   atomic.Int64
}

// regList is one registered list: a daemon-owned copy of the frame
// arrays (request arenas are recycled per-request; handle storage must
// outlive them) plus the Server handle serving it. A version bump
// replaces the whole regList — the old one's storage stays valid for
// requests already in flight on its handle.
type regList struct {
	h       *listrank.Handle
	version uint32
	list    listrank.List
}

// connBuf is one connection's worth of reusable request state: the
// wire codec's arenas plus the List header the request is served
// through. Everything a request touches lives here or in the fleet.
// acct is the footprint last reported to the governor (ClassWire);
// pb is the body-watchdog wrapper, hosted here so enabling the
// watchdog does not add a per-request allocation for the reader.
type connBuf struct {
	wb   wire.Buffer
	list listrank.List
	acct int64
	pb   progressBody
}

func newDaemon(srv *listrank.Server, maxElems, maxHandles int, quotaRate, quotaBurst float64) *daemon {
	d := &daemon{
		srv:        srv,
		maxElems:   maxElems,
		maxHandles: maxHandles,
		quotaRate:  quotaRate,
		quotaBurst: quotaBurst,
		quotas:     make(map[string]*fleet.TokenBucket),
		registry:   make(map[uint32]*regList),
		started:    time.Now(),
		gov:        govern.Process(),
		retryAfter: 1,
	}
	d.bufs.New = func() *connBuf { return &connBuf{} }
	return d
}

// lookup resolves a tagged frame against the registry: a version match
// returns the live registration, a version bump invalidates the old
// handle and re-registers from this frame's payload, and a new id
// registers (or, past max-handles, returns nil → serve anonymously).
// A tagged frame whose length disagrees with the registered list is a
// client bug — the identity contract says id+version pins the whole
// list — and lookup refuses it rather than serving the wrong data.
var errHandleLen = errors.New("list_id registered with a different length")

func (d *daemon) lookup(h wire.ReqHeader, wb *wire.Buffer) (*regList, error) {
	d.regMu.Lock()
	defer d.regMu.Unlock()
	rl := d.registry[h.ListID]
	if rl != nil && rl.version == h.ListVersion {
		if rl.list.Len() != h.N {
			return nil, errHandleLen
		}
		return rl, nil
	}
	if rl == nil && len(d.registry) >= d.maxHandles {
		d.fallback.Add(1)
		return nil, nil
	}
	if rl != nil {
		// Version bump: the list changed under the id. Drop the old
		// handle's cached layout; in-flight requests keep old storage.
		rl.h.Invalidate()
	}
	nrl := &regList{version: h.ListVersion}
	nrl.list = listrank.List{
		Next:  append([]int64(nil), wb.Next[:h.N]...),
		Value: append([]int64(nil), wb.Value[:h.N]...),
		Head:  int64(h.Head),
	}
	nrl.h = d.srv.Register(&nrl.list)
	d.registry[h.ListID] = nrl
	d.registered.Add(1)
	return nrl, nil
}

// mux builds the daemon's routing table: the two hot binary-frame
// endpoints, the observability endpoints, and pprof.
func (d *daemon) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/rank", func(w http.ResponseWriter, r *http.Request) {
		d.handle(w, r, listrank.OpRank)
	})
	mux.HandleFunc("/scan", func(w http.ResponseWriter, r *http.Request) {
		d.handle(w, r, listrank.OpScan)
	})
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// fail finishes a request without a result frame: the outcome header
// is what load generators classify by, the status code is for
// everyone else.
func fail(w http.ResponseWriter, code int, outcome, msg string) {
	w.Header().Set("X-Outcome", outcome)
	http.Error(w, msg, code)
}

// failRetry is fail plus a Retry-After header — every 429/503 the
// daemon sends carries one, so well-behaved clients back off for at
// least that long instead of hammering an overloaded door.
func (d *daemon) failRetry(w http.ResponseWriter, code int, outcome, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(d.retryAfter))
	fail(w, code, outcome, msg)
}

// handle serves one /rank or /scan request: decode the frame into
// pooled arenas, quota-check the tenant, map the wire deadline and
// the client connection onto the request's cancellation, submit, and
// stream the result (or the failure classification) back.
func (d *daemon) handle(w http.ResponseWriter, r *http.Request, op listrank.Op) {
	if op == listrank.OpRank {
		d.nRank.Add(1)
	} else {
		d.nScan.Add(1)
	}
	if r.Method != http.MethodPost {
		fail(w, http.StatusMethodNotAllowed, "badframe", "POST a request frame")
		return
	}
	if d.maxConnInflight > 0 {
		if ctr := connInflight(r); ctr != nil {
			if ctr.Add(1) > int64(d.maxConnInflight) {
				ctr.Add(-1)
				d.throttled.Add(1)
				d.failRetry(w, http.StatusTooManyRequests, "throttled", "per-connection in-flight cap reached")
				return
			}
			defer ctr.Add(-1)
		}
	}
	d.inflight.Add(1)
	defer d.inflight.Add(-1)

	cb := d.bufs.Get()
	d.bufsLive.Add(1)
	defer func() {
		// Report the buffer's retained footprint to the governor as
		// pooled wire bytes — once per high-water change, not per
		// request — then return it. Every exit path runs this, which is
		// what the buffer-leak checks in the slow-client tests pin.
		if fp := cb.wb.Footprint(); fp != cb.acct {
			d.gov.Adjust(govern.ClassWire, fp-cb.acct)
			cb.acct = fp
		}
		d.bufsLive.Add(-1)
		d.bufs.Put(cb)
	}()

	// The body-read progress watchdog: a client that stalls or
	// trickles its upload trips the connection read deadline and is
	// evicted, releasing the pooled buffer and the inflight slot it
	// would otherwise pin for the life of the connection.
	body := io.Reader(r.Body)
	if d.bodyStall > 0 {
		cb.pb.reset(r.Body, http.NewResponseController(w), d.bodyStall)
		body = &cb.pb
		defer cb.pb.release()
	}
	h, err := wire.ReadRequest(body, &cb.wb, d.maxElems)
	if err != nil {
		if d.bodyStall > 0 && cb.pb.stalled {
			d.evicted.Add(1)
			w.Header().Set("Connection", "close")
			fail(w, http.StatusRequestTimeout, "evicted", "request body stalled: "+err.Error())
			return
		}
		d.badFrames.Add(1)
		fail(w, http.StatusBadRequest, "badframe", err.Error())
		return
	}
	d.bytesIn.Add(int64(h.FrameLen()))

	if tenant := r.Header.Get("X-Tenant"); tenant != "" && !d.allow(tenant) {
		d.quotaRejected.Add(1)
		d.failRetry(w, http.StatusTooManyRequests, "quota", "tenant over quota: "+tenant)
		return
	}

	// The wire deadline: the frame field and the X-Deadline-Ms header
	// are both honored, tighter wins. It maps onto Request.Deadline —
	// queued expiry never touches an engine, mid-run expiry abandons
	// at the next cancellation checkpoint — and the connection's
	// context rides along as Request.Ctx, so a client that gives up
	// (or disconnects) frees its engine instead of being served into
	// the void.
	deadlineMs := int64(h.DeadlineMs)
	if v := r.Header.Get("X-Deadline-Ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 32)
		if err != nil || ms < 0 {
			d.badFrames.Add(1)
			fail(w, http.StatusBadRequest, "badframe", "bad X-Deadline-Ms: "+v)
			return
		}
		if deadlineMs == 0 || (ms > 0 && ms < deadlineMs) {
			deadlineMs = ms
		}
	}

	// A tagged frame resolves to a registered handle so repeat traffic
	// hits the Server's reorder cache; anonymous frames (and tagged
	// ones bounced by max-handles) serve through the request's own
	// pooled arenas exactly as before.
	var rl *regList
	if h.HasHandle {
		d.tagged.Add(1)
		rl, err = d.lookup(h, &cb.wb)
		if err != nil {
			d.badFrames.Add(1)
			fail(w, http.StatusBadRequest, "badframe", err.Error())
			return
		}
	}

	cb.wb.Dst = arena.Grow(cb.wb.Dst, h.N)
	req := listrank.Request{
		Op:  op,
		Dst: cb.wb.Dst,
		Ctx: r.Context(),
	}
	if rl != nil {
		req.Handle = rl.h
	} else {
		cb.list = listrank.List{Next: cb.wb.Next, Value: cb.wb.Value, Head: int64(h.Head)}
		req.List = &cb.list
	}
	if deadlineMs > 0 {
		req.Deadline = time.Now().Add(time.Duration(deadlineMs) * time.Millisecond)
	}

	res, err := d.srv.Submit(req).Wait()
	switch {
	case err == nil:
		d.served.Add(1)
		hd := w.Header()
		hd.Set("X-Outcome", "served")
		hd.Set("Content-Type", "application/octet-stream")
		hd.Set("Content-Length", strconv.Itoa(wire.RespLen(len(res))))
		// A write error here means the client went away after the
		// serve completed; the request was still served and is counted
		// as such on both ends of the identity.
		if err := wire.WriteResponse(w, &cb.wb, res); err == nil {
			d.bytesOut.Add(int64(wire.RespLen(len(res))))
		}
	case errors.Is(err, listrank.ErrDeadlineExceeded), errors.Is(err, listrank.ErrCanceled):
		d.expired.Add(1)
		fail(w, http.StatusGatewayTimeout, "expired", err.Error())
	case errors.Is(err, listrank.ErrPanic):
		d.poisoned.Add(1)
		fail(w, http.StatusInternalServerError, "poisoned", err.Error())
	case errors.Is(err, listrank.ErrShed):
		d.shed.Add(1)
		d.failRetry(w, http.StatusTooManyRequests, "shed", err.Error())
	case errors.Is(err, listrank.ErrBackpressure):
		d.rejected.Add(1)
		d.failRetry(w, http.StatusTooManyRequests, "rejected", err.Error())
	case errors.Is(err, listrank.ErrServerClosed):
		d.rejected.Add(1)
		d.failRetry(w, http.StatusServiceUnavailable, "rejected", err.Error())
	default: // ErrBadRequest
		d.rejected.Add(1)
		fail(w, http.StatusBadRequest, "rejected", err.Error())
	}
}

// allow checks (and lazily creates) the tenant's token bucket.
func (d *daemon) allow(tenant string) bool {
	if d.quotaRate <= 0 {
		return true
	}
	d.quotaMu.Lock()
	tb := d.quotas[tenant]
	if tb == nil {
		tb = fleet.NewTokenBucket(d.quotaRate, d.quotaBurst)
		d.quotas[tenant] = tb
	}
	d.quotaMu.Unlock()
	return tb.Allow(time.Now())
}

// handleMetrics hand-renders the Prometheus text exposition format
// from the fleet's ServerStats snapshot and the daemon's own
// counters — no client library, the format is five lines of printf.
func (d *daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := d.srv.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	// Fleet counters: every submission lands in exactly one of the
	// five outcome buckets, so submitted = served+rejected+expired+
	// poisoned+shed at every quiescent point.
	counter("listrank_submitted_total", "Requests submitted to the fleet.", st.Submitted)
	counter("listrank_served_total", "Requests served successfully.", st.Served)
	counter("listrank_rejected_total", "Requests rejected (backpressure, closed, malformed).", st.Rejected)
	counter("listrank_expired_total", "Requests expired or canceled (queued or mid-run).", st.Expired)
	counter("listrank_poisoned_total", "Requests whose serve panicked (fault contained).", st.Poisoned)
	counter("listrank_shed_total", "Requests fast-rejected by adaptive load shedding.", st.Shed)
	counter("listrank_dispatches_total", "Engine dispatches (a coalesced batch is one).", st.Dispatches)
	counter("listrank_coalesced_total", "Requests served inside multi-request dispatches.", st.Coalesced)
	counter("listrank_segmented_total", "Requests served by the segmented engine.", st.Segmented)

	// Reorder-cache counters: warm handle traffic served from a cached
	// sequential layout (hits) vs. handle traffic that chased pointers
	// (misses); builds and evictions bound the cache's churn and
	// listrank_reorder_bytes its footprint.
	counter("listrank_reorder_hits_total", "Handle requests served from a cached reordered layout.", st.ReorderHits)
	counter("listrank_reorder_misses_total", "Handle requests served without a cached layout.", st.ReorderMisses)
	counter("listrank_reorder_builds_total", "Reordered layouts built.", st.ReorderBuilds)
	counter("listrank_reorder_evictions_total", "Reordered layouts evicted by the byte budget.", st.ReorderEvictions)
	gauge("listrank_reorder_bytes", "Bytes held by cached reordered layouts.", st.ReorderBytes)

	bounds := d.srv.BinBounds()
	fmt.Fprintf(w, "# HELP listrank_bin_served_total Served requests per size bin.\n# TYPE listrank_bin_served_total counter\n")
	for b, v := range st.BinServed {
		fmt.Fprintf(w, "listrank_bin_served_total{bin=\"%d\",bound=\"%s\"} %d\n", b, boundLabel(bounds[b]), v)
	}
	fmt.Fprintf(w, "# HELP listrank_queue_depth Admission-queue depth per size bin.\n# TYPE listrank_queue_depth gauge\n")
	for b, v := range st.BinQueued {
		fmt.Fprintf(w, "listrank_queue_depth{bin=\"%d\",bound=\"%s\"} %d\n", b, boundLabel(bounds[b]), v)
	}

	// Daemon counters: the wire-level view. decode errors and quota
	// rejections happen before Submit, so they are NOT part of the
	// fleet identity; the four outcome counters are its client-visible
	// mirror and must match the listrank_* set exactly.
	counter("listrankd_rank_requests_total", "HTTP requests to /rank.", d.nRank.Load())
	counter("listrankd_scan_requests_total", "HTTP requests to /scan.", d.nScan.Load())
	counter("listrankd_decode_errors_total", "Frames rejected by the wire codec (never submitted).", d.badFrames.Load())
	counter("listrankd_quota_rejected_total", "Requests rejected by per-tenant quota (never submitted).", d.quotaRejected.Load())
	counter("listrankd_outcome_served_total", "Responses with X-Outcome: served.", d.served.Load())
	counter("listrankd_outcome_rejected_total", "Responses with X-Outcome: rejected.", d.rejected.Load())
	counter("listrankd_outcome_expired_total", "Responses with X-Outcome: expired.", d.expired.Load())
	counter("listrankd_outcome_poisoned_total", "Responses with X-Outcome: poisoned.", d.poisoned.Load())
	counter("listrankd_outcome_shed_total", "Responses with X-Outcome: shed.", d.shed.Load())
	counter("listrankd_evicted_total", "Slow clients evicted by the body-read watchdog (never submitted).", d.evicted.Load())
	counter("listrankd_throttled_total", "Requests bounced by the per-connection in-flight cap (never submitted).", d.throttled.Load())
	counter("listrankd_frame_bytes_in_total", "Request-frame bytes decoded.", d.bytesIn.Load())
	counter("listrankd_frame_bytes_out_total", "Response-frame bytes written.", d.bytesOut.Load())
	counter("listrankd_tagged_requests_total", "Request frames carrying a list_id tag.", d.tagged.Load())
	counter("listrankd_handles_registered_total", "List registrations (first sight or version bump).", d.registered.Load())
	counter("listrankd_handle_fallback_total", "Tagged frames served anonymously (registry full).", d.fallback.Load())
	gauge("listrankd_inflight_requests", "Frame requests currently in flight.", d.inflight.Load())
	gauge("listrankd_wire_buffers_live", "Pooled wire buffers currently checked out (0 when quiescent).", d.bufsLive.Load())
	if d.conns != nil {
		gauge("listrankd_open_connections", "Accepted connections currently open (capped by -max-conns).", int64(d.conns.Active()))
	}
	gauge("listrankd_uptime_seconds", "Seconds since the daemon started.", int64(time.Since(d.started).Seconds()))
	gauge("go_goroutines", "Current goroutine count.", int64(runtime.NumGoroutine()))

	// Memory-governor gauges: the process-wide pressure ledger every
	// subsystem reports into (0=ok, 1=soft, 2=hard). Hard pressure is
	// visible here as listrank_mem_pressure 2 alongside a rising
	// listrank_shed_total.
	gs := d.gov.Snapshot()
	gauge("listrank_mem_limit_bytes", "Memory governor byte limit (0 = unlimited).", gs.Limit)
	gauge("listrank_mem_used_bytes", "Bytes accounted against the memory governor.", gs.Used)
	gauge("listrank_mem_pressure", "Governor pressure level: 0 ok, 1 soft, 2 hard.", int64(gs.Level))
	fmt.Fprintf(w, "# HELP listrank_mem_class_bytes Governed bytes per subsystem class.\n# TYPE listrank_mem_class_bytes gauge\n")
	for c, v := range gs.ByClass {
		fmt.Fprintf(w, "listrank_mem_class_bytes{class=%q} %d\n", govern.Class(c).String(), v)
	}
}

// boundLabel renders a size-bin upper bound for a metric label; the
// final unbounded bin (-1) renders as +Inf, Prometheus-style.
func boundLabel(bound int) string {
	if bound < 0 {
		return "+Inf"
	}
	return strconv.Itoa(bound)
}

// runServe is the daemon mode: boot a fleet, bind, serve until
// SIGTERM/SIGINT, then drain — stop accepting, finish in-flight
// requests, close the fleet — and self-check the accounting identity
// and goroutine count on the way out. The returned code is the
// process exit status, so deferred cleanup still runs.
func runServe(args []string) int {
	fs := flag.NewFlagSet("listrankd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8347", "listen address (host:port; port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	procs := fs.Int("procs", 0, "total fleet worker budget (0 = GOMAXPROCS)")
	binsFlag := fs.String("bins", "", "comma-separated size-bin upper bounds (empty = server default)")
	queue := fs.Int("queue", 1024, "per-shard admission queue depth")
	maxBatch := fs.Int("maxbatch", 64, "max requests coalesced per dispatch")
	reject := fs.Bool("reject", false, "reject-on-full backpressure instead of blocking")
	warm := fs.String("warm", "", "comma-separated list sizes to pre-warm the fleet for")
	autoSegment := fs.Int("auto-segment", 0, "list length above which requests are served by the segmented engine (0 disables)")
	maxElems := fs.Int("max-elems", wire.DefaultMaxElems, "largest accepted list length per frame")
	reorderAfter := fs.Int("reorder-after", 0, "serves per list version before caching a reordered layout (0 = server default, negative disables)")
	reorderBudget := fs.Int64("reorder-budget", 0, "reorder-cache byte budget across all shards (0 = server default, negative disables)")
	maxHandles := fs.Int("max-handles", 4096, "max distinct list_ids registered; tagged frames beyond this serve anonymously")
	quotaRate := fs.Float64("quota-rate", 0, "per-tenant token refill rate, requests/sec (0 = no quotas)")
	quotaBurst := fs.Float64("quota-burst", 32, "per-tenant token-bucket burst")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "in-flight drain budget on SIGTERM")
	shed := fs.Bool("shed", false, "deadline-aware adaptive admission: fast-reject requests whose deadline the shard backlog cannot meet")
	memLimit := fs.Int64("mem-limit", 0, "process memory-governor byte limit across reorder/segment/mmap/wire classes (0 = unlimited)")
	maxConns := fs.Int("max-conns", 0, "max concurrent accepted connections (0 = unlimited)")
	maxConnInflight := fs.Int("max-conn-inflight", 0, "max in-flight requests per connection, h2c only (0 = unlimited)")
	readTimeout := fs.Duration("read-timeout", 0, "per-request read deadline, header+body (0 = none)")
	writeTimeout := fs.Duration("write-timeout", 0, "per-request write deadline (0 = none)")
	idleTimeout := fs.Duration("idle-timeout", 0, "keep-alive idle connection timeout (0 = none)")
	bodyStall := fs.Duration("body-stall-timeout", 0, "max time between body-read progress before a slow client is evicted (0 = off)")
	retryAfter := fs.Int("retry-after", 1, "Retry-After seconds sent on 429/503 responses")
	fs.Parse(args)

	bounds, err := parseBins(*binsFlag)
	if err != nil {
		log.Fatalf("listrankd: %v", err)
	}
	warmSizes, err := parseSizes(*warm)
	if err != nil {
		log.Fatalf("listrankd: -warm: %v", err)
	}

	// Goroutine baseline for the shutdown leak check, taken before the
	// fleet (and the signal handler) spin anything up.
	baseline := runtime.NumGoroutine()

	gov := govern.New(*memLimit)
	srv := listrank.NewServer(listrank.ServerOptions{
		Procs:              *procs,
		BinBounds:          bounds,
		QueueDepth:         *queue,
		MaxCoalesce:        *maxBatch,
		Reject:             *reject,
		WarmSizes:          warmSizes,
		AutoSegment:        *autoSegment,
		ReorderAfter:       *reorderAfter,
		ReorderBudgetBytes: *reorderBudget,
		Shed:               *shed,
		Governor:           gov,
	})
	d := newDaemon(srv, *maxElems, *maxHandles, *quotaRate, *quotaBurst)
	d.gov = gov
	d.retryAfter = *retryAfter
	d.bodyStall = *bodyStall
	d.maxConnInflight = *maxConnInflight

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listrankd: listen: %v", err)
	}
	if *maxConns > 0 {
		ll := newLimitListener(ln, *maxConns)
		d.conns = ll
		ln = ll
	}
	if *addrFile != "" {
		// Write-then-rename so a polling reader never sees a partial
		// address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("listrankd: addr-file: %v", err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			log.Fatalf("listrankd: addr-file: %v", err)
		}
		defer os.Remove(*addrFile)
	}

	hs := &http.Server{
		Handler:           d.mux(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		ConnContext:       connContext,
	}
	configureServerProtocols(hs)
	log.Printf("listrankd: serving on http://%s  (h2c=%v procs=%d bins=%v queue=%d reject=%v shed=%v mem-limit=%d quota-rate=%g max-elems=%d max-conns=%d)",
		ln.Addr(), h2cCapable, *procs, bounds, *queue, *reject, *shed, *memLimit, *quotaRate, *maxElems, *maxConns)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		log.Fatalf("listrankd: serve: %v", err)
	case s := <-sig:
		log.Printf("listrankd: %v: draining (stop accepting, finish in-flight, close fleet)", s)
	}
	signal.Stop(sig)

	exit := 0
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("listrankd: shutdown: %v", err)
		exit = 1
	}
	srv.Close()

	// The daemon's exit is itself an assertion: the accounting
	// identity must balance and the goroutines must be gone, or the
	// drain was not clean and CI should see a nonzero exit.
	st := srv.Stats()
	log.Printf("listrankd: final stats: submitted=%d served=%d rejected=%d expired=%d poisoned=%d shed=%d (decode-errors=%d quota-rejected=%d evicted=%d)",
		st.Submitted, st.Served, st.Rejected, st.Expired, st.Poisoned, st.Shed,
		d.badFrames.Load(), d.quotaRejected.Load(), d.evicted.Load())
	if st.Submitted != st.Served+st.Rejected+st.Expired+st.Poisoned+st.Shed {
		log.Printf("listrankd: ACCOUNTING IDENTITY VIOLATED: %d submitted != %d served + %d rejected + %d expired + %d poisoned + %d shed",
			st.Submitted, st.Served, st.Rejected, st.Expired, st.Poisoned, st.Shed)
		exit = 1
	}
	if live := d.bufsLive.Load(); live != 0 {
		log.Printf("listrankd: WIRE BUFFER LEAK: %d pooled buffers still checked out after drain", live)
		exit = 1
	}
	if !waitGoroutines(baseline + 2) { // +2: signal-notify internals, late conn teardown
		log.Printf("listrankd: GOROUTINE LEAK: %d goroutines alive after drain (baseline %d)",
			runtime.NumGoroutine(), baseline)
		exit = 1
	}
	if exit == 0 {
		log.Printf("listrankd: drained clean")
	}
	return exit
}

// waitGoroutines polls until the process goroutine count falls to at
// most limit, giving late HTTP connection teardown up to two seconds.
func waitGoroutines(limit int) bool {
	for i := 0; i < 40; i++ {
		if runtime.NumGoroutine() <= limit {
			return true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return runtime.NumGoroutine() <= limit
}

// parseBins parses the comma-separated -bins flag; empty selects the
// server default.
func parseBins(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	bounds := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -bins value %q: %v", p, err)
		}
		bounds[i] = v
	}
	return bounds, nil
}

// parseSizes parses a comma-separated list of positive sizes (the
// -warm flag).
func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	sizes := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad size %q", p)
		}
		sizes[i] = v
	}
	return sizes, nil
}
