package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"listrank"
	"listrank/internal/wire"
)

// newTestDaemon boots a small fleet behind the daemon's mux on an
// httptest server; cleanup drains both.
func newTestDaemon(t *testing.T, opt listrank.ServerOptions, quotaRate, quotaBurst float64) (*daemon, *httptest.Server) {
	t.Helper()
	srv := listrank.NewServer(opt)
	d := newDaemon(srv, 1<<21, 4096, quotaRate, quotaBurst)
	hs := httptest.NewServer(d.mux())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return d, hs
}

// post sends one frame and returns status, X-Outcome, and the body.
func post(t *testing.T, url string, frame []byte, hdr map[string]string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Outcome"), body
}

// encodeList encodes l as a request frame.
func encodeList(t *testing.T, op wire.Op, deadlineMs uint32, l *listrank.List, withValues bool) []byte {
	t.Helper()
	var value []int64
	if withValues {
		value = l.Value
	}
	frame, err := wire.AppendRequest(nil, op, deadlineMs, l.Head, l.Next, value)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestServeRankAndScanOverWire(t *testing.T) {
	_, hs := newTestDaemon(t, listrank.ServerOptions{Procs: 4}, 0, 0)
	for _, n := range []int{1, 2, 1000, 5000} {
		l := listrank.NewRandomList(n, uint64(n))
		for i := range l.Value {
			l.Value[i] = int64(i%7) - 3
		}
		wantRank := listrank.RankWith(l, listrank.Options{})
		wantScan := listrank.ScanWith(l, listrank.Options{})

		status, outcome, body := post(t, hs.URL+"/rank", encodeList(t, wire.OpRank, 0, l, false), nil)
		if status != http.StatusOK || outcome != "served" {
			t.Fatalf("n=%d rank: status %d outcome %q body %q", n, status, outcome, body)
		}
		var b wire.Buffer
		got, err := wire.DecodeResponse(body, &b, 0)
		if err != nil {
			t.Fatalf("n=%d rank: decode: %v", n, err)
		}
		for i := range got {
			if got[i] != wantRank[i] {
				t.Fatalf("n=%d rank[%d] = %d, want %d", n, i, got[i], wantRank[i])
			}
		}

		status, outcome, body = post(t, hs.URL+"/scan", encodeList(t, wire.OpScan, 0, l, true), nil)
		if status != http.StatusOK || outcome != "served" {
			t.Fatalf("n=%d scan: status %d outcome %q", n, status, outcome)
		}
		got, err = wire.DecodeResponse(body, &b, 0)
		if err != nil {
			t.Fatalf("n=%d scan: decode: %v", n, err)
		}
		for i := range got {
			if got[i] != wantScan[i] {
				t.Fatalf("n=%d scan[%d] = %d, want %d", n, i, got[i], wantScan[i])
			}
		}
	}
}

func TestServeEmptyList(t *testing.T) {
	_, hs := newTestDaemon(t, listrank.ServerOptions{Procs: 2}, 0, 0)
	frame, err := wire.AppendRequest(nil, wire.OpRank, 0, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	status, outcome, body := post(t, hs.URL+"/rank", frame, nil)
	if status != http.StatusOK || outcome != "served" {
		t.Fatalf("empty list: status %d outcome %q", status, outcome)
	}
	var b wire.Buffer
	got, err := wire.DecodeResponse(body, &b, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty list: %d results, err %v", len(got), err)
	}
}

func TestServeRejectsBadFrames(t *testing.T) {
	d, hs := newTestDaemon(t, listrank.ServerOptions{Procs: 2}, 0, 0)
	l := listrank.NewRandomList(64, 1)
	good := encodeList(t, wire.OpRank, 0, l, false)

	cases := [][]byte{
		nil,                // empty body
		good[:10],          // truncated header
		good[:len(good)-1], // truncated payload
		append(append([]byte(nil), good...), 0xAB), // trailing byte
		bytes.Repeat([]byte{0xFF}, 64),             // garbage
	}
	for i, frame := range cases {
		status, outcome, _ := post(t, hs.URL+"/rank", frame, nil)
		if status != http.StatusBadRequest || outcome != "badframe" {
			t.Errorf("case %d: status %d outcome %q, want 400 badframe", i, status, outcome)
		}
	}

	// Oversized: the daemon's -max-elems is 2^21 here.
	big := make([]byte, wire.ReqHeaderLen)
	copy(big, good[:wire.ReqHeaderLen])
	big[16], big[17], big[18], big[19] = 0, 0, 0x40, 0 // n = 2^22
	status, outcome, _ := post(t, hs.URL+"/rank", big, nil)
	if status != http.StatusBadRequest || outcome != "badframe" {
		t.Errorf("oversized: status %d outcome %q", status, outcome)
	}

	// Bad deadline header.
	status, outcome, _ = post(t, hs.URL+"/rank", good, map[string]string{"X-Deadline-Ms": "soon"})
	if status != http.StatusBadRequest || outcome != "badframe" {
		t.Errorf("bad deadline header: status %d outcome %q", status, outcome)
	}

	// GET on a frame endpoint.
	resp, err := http.Get(hs.URL + "/rank")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /rank: status %d", resp.StatusCode)
	}

	if d.badFrames.Load() != int64(len(cases))+2 {
		t.Errorf("decode-error counter %d, want %d", d.badFrames.Load(), len(cases)+2)
	}
	if d.served.Load() != 0 {
		t.Errorf("served counter %d after only bad frames", d.served.Load())
	}
}

func TestServePoisonContainedAndFleetSurvives(t *testing.T) {
	_, hs := newTestDaemon(t, listrank.ServerOptions{Procs: 2}, 0, 0)
	l := listrank.NewRandomList(256, 7)
	l.Next[l.Head] = 300 // out-of-range link: kernel guard panics, fault is contained
	status, outcome, _ := post(t, hs.URL+"/rank", encodeList(t, wire.OpRank, 0, l, false), nil)
	if status != http.StatusInternalServerError || outcome != "poisoned" {
		t.Fatalf("poisoned: status %d outcome %q", status, outcome)
	}

	// The shard that contained the fault still serves.
	good := listrank.NewRandomList(256, 8)
	want := listrank.RankWith(good, listrank.Options{})
	status, outcome, body := post(t, hs.URL+"/rank", encodeList(t, wire.OpRank, 0, good, false), nil)
	if status != http.StatusOK || outcome != "served" {
		t.Fatalf("post-poison serve: status %d outcome %q", status, outcome)
	}
	var b wire.Buffer
	got, err := wire.DecodeResponse(body, &b, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("post-poison rank[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestServeDeadlineExpiresOverWire(t *testing.T) {
	_, hs := newTestDaemon(t, listrank.ServerOptions{Procs: 1}, 0, 0)
	// A 1M-element rank takes tens of milliseconds; a 1ms deadline
	// expires queued or at a mid-run cancellation checkpoint.
	l := listrank.NewRandomList(1<<20, 9)

	// Frame-field deadline.
	status, outcome, _ := post(t, hs.URL+"/rank", encodeList(t, wire.OpRank, 1, l, false), nil)
	if status != http.StatusGatewayTimeout || outcome != "expired" {
		t.Fatalf("frame deadline: status %d outcome %q", status, outcome)
	}

	// Header deadline.
	status, outcome, _ = post(t, hs.URL+"/rank", encodeList(t, wire.OpRank, 0, l, false),
		map[string]string{"X-Deadline-Ms": "1"})
	if status != http.StatusGatewayTimeout || outcome != "expired" {
		t.Fatalf("header deadline: status %d outcome %q", status, outcome)
	}
}

func TestServeQuotaPerTenant(t *testing.T) {
	d, hs := newTestDaemon(t, listrank.ServerOptions{Procs: 2}, 0.0001, 2)
	l := listrank.NewRandomList(128, 3)
	frame := encodeList(t, wire.OpRank, 0, l, false)

	// Burst 2, negligible refill: two admitted, third rejected.
	for i := 0; i < 2; i++ {
		status, outcome, _ := post(t, hs.URL+"/rank", frame, map[string]string{"X-Tenant": "t-a"})
		if status != http.StatusOK || outcome != "served" {
			t.Fatalf("tenant request %d: status %d outcome %q", i, status, outcome)
		}
	}
	status, outcome, _ := post(t, hs.URL+"/rank", frame, map[string]string{"X-Tenant": "t-a"})
	if status != http.StatusTooManyRequests || outcome != "quota" {
		t.Fatalf("over-quota request: status %d outcome %q", status, outcome)
	}

	// Another tenant has its own bucket; no header means no quota.
	if status, outcome, _ = post(t, hs.URL+"/rank", frame, map[string]string{"X-Tenant": "t-b"}); outcome != "served" {
		t.Fatalf("tenant t-b: status %d outcome %q", status, outcome)
	}
	if status, outcome, _ = post(t, hs.URL+"/rank", frame, nil); outcome != "served" {
		t.Fatalf("untenanted: status %d outcome %q", status, outcome)
	}

	if got := d.quotaRejected.Load(); got != 1 {
		t.Errorf("quota-rejected counter %d, want 1", got)
	}
}

// metricValue extracts an unlabeled metric from Prometheus text.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return int64(v)
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestServeMetricsIdentity drives mixed traffic and asserts the
// accounting identity between /metrics and the daemon's own
// client-visible outcome counters.
func TestServeMetricsIdentity(t *testing.T) {
	_, hs := newTestDaemon(t, listrank.ServerOptions{Procs: 2}, 0.0001, 1)
	good := listrank.NewRandomList(512, 11)
	goodFrame := encodeList(t, wire.OpRank, 0, good, false)
	poison := listrank.NewRandomList(128, 12)
	poison.Next[poison.Head] = 999
	poisonFrame := encodeList(t, wire.OpRank, 0, poison, false)
	big := listrank.NewRandomList(1<<20, 13)
	expireFrame := encodeList(t, wire.OpRank, 1, big, false)

	tally := map[string]int64{}
	run := func(path string, frame []byte, hdr map[string]string) {
		_, outcome, _ := post(t, hs.URL+path, frame, hdr)
		tally[outcome]++
	}
	for i := 0; i < 10; i++ {
		run("/rank", goodFrame, nil)
	}
	run("/scan", encodeList(t, wire.OpScan, 0, good, true), nil)
	run("/rank", poisonFrame, nil)
	run("/rank", expireFrame, nil)
	run("/rank", goodFrame[:9], nil)                                     // badframe
	run("/rank", goodFrame, map[string]string{"X-Tenant": "t-q"})        // burst 1: served
	run("/rank", goodFrame, map[string]string{"X-Tenant": "t-q"})        // quota
	run("/rank", goodFrame, map[string]string{"X-Deadline-Ms": "60000"}) // generous deadline: served

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := string(mb)

	submitted := metricValue(t, m, "listrank_submitted_total")
	served := metricValue(t, m, "listrank_served_total")
	rejected := metricValue(t, m, "listrank_rejected_total")
	expired := metricValue(t, m, "listrank_expired_total")
	poisoned := metricValue(t, m, "listrank_poisoned_total")

	if submitted != served+rejected+expired+poisoned {
		t.Errorf("identity violated: %d != %d+%d+%d+%d", submitted, served, rejected, expired, poisoned)
	}
	check := func(name string, want int64) {
		if got := metricValue(t, m, name); got != want {
			t.Errorf("%s = %d, want %d (client tallies %v)", name, got, want, tally)
		}
	}
	check("listrank_served_total", tally["served"])
	check("listrank_expired_total", tally["expired"])
	check("listrank_poisoned_total", tally["poisoned"])
	check("listrank_rejected_total", tally["rejected"])
	check("listrankd_quota_rejected_total", tally["quota"])
	check("listrankd_decode_errors_total", tally["badframe"])
	check("listrankd_outcome_served_total", tally["served"])
	if got := submitted; got != tally["served"]+tally["rejected"]+tally["expired"]+tally["poisoned"] {
		t.Errorf("submitted %d != client-side submitted tallies %v", got, tally)
	}
}

// TestServeAutoSegmentBooks boots the daemon with auto-segmentation
// on and checks the books over the wire: a segmented request is one
// submission like any other, so every /metrics bucket equals the
// client's tally, and every over-threshold frame that was served or
// poisoned ran on the segmented engine.
func TestServeAutoSegmentBooks(t *testing.T) {
	_, hs := newTestDaemon(t, listrank.ServerOptions{Procs: 2, AutoSegment: 4096}, 0, 0)
	l := listrank.NewRandomList(20000, 21)
	for i := range l.Value {
		l.Value[i] = int64(i%5) - 2
	}
	wantRank := listrank.RankWith(l, listrank.Options{})
	wantScan := listrank.ScanWith(l, listrank.Options{})
	poison := listrank.NewOrderedList(20000)
	poison.Next[100] = 500 // orphans 101..499: only a run walk sees it
	big := listrank.NewOrderedList(1 << 20)

	tally := map[string]int64{}
	var b wire.Buffer
	send := func(path string, frame []byte, want []int64) string {
		_, outcome, body := post(t, hs.URL+path, frame, nil)
		tally[outcome]++
		if want != nil && outcome == "served" {
			got, err := wire.DecodeResponse(body, &b, 0)
			if err != nil {
				t.Fatalf("%s: decode: %v", path, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s[%d] = %d, want %d", path, i, got[i], want[i])
				}
			}
		}
		return outcome
	}
	for i := 0; i < 3; i++ {
		send("/rank", encodeList(t, wire.OpRank, 0, l, false), wantRank)
		send("/scan", encodeList(t, wire.OpScan, 0, l, true), wantScan)
	}
	if got := send("/rank", encodeList(t, wire.OpRank, 0, poison, false), nil); got != "poisoned" {
		t.Errorf("poisoned frame: outcome %q", got)
	}
	if got := send("/rank", encodeList(t, wire.OpRank, 1, big, false), nil); got != "expired" {
		t.Errorf("1 ms frame deadline on 2^20 vertices: outcome %q", got)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := string(mb)
	for _, o := range []string{"served", "rejected", "expired", "poisoned"} {
		if got := metricValue(t, m, "listrank_"+o+"_total"); got != tally[o] {
			t.Errorf("listrank_%s_total = %d, client counted %d (tallies %v)", o, got, tally[o], tally)
		}
	}
	if seg := metricValue(t, m, "listrank_segmented_total"); seg == 0 || seg < tally["served"]+tally["poisoned"] {
		t.Errorf("listrank_segmented_total = %d, want > 0 and ≥ served + poisoned (tallies %v)", seg, tally)
	}
}

// encodeTagged encodes l as a request frame carrying the list_id/
// list_version handle extension.
func encodeTagged(t *testing.T, op wire.Op, l *listrank.List, withValues bool, id, version uint32) []byte {
	t.Helper()
	var value []int64
	if withValues {
		value = l.Value
	}
	frame, err := wire.AppendRequestTagged(nil, op, 0, l.Head, l.Next, value, id, version)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestServeTaggedFramesHitReorderCache drives the daemon's handle
// registry end to end over the wire: repeat tagged frames must be
// served from the Server's reorder cache (hits in /metrics), a version
// bump must invalidate and re-register, a length-mismatched reuse of
// an id must bounce as badframe, and ids past max-handles must fall
// back to anonymous serving — all while the answers stay correct.
func TestServeTaggedFramesHitReorderCache(t *testing.T) {
	srv := listrank.NewServer(listrank.ServerOptions{Procs: 2, ReorderAfter: 1})
	d := newDaemon(srv, 1<<21, 2, 0, 0) // max-handles = 2
	hs := httptest.NewServer(d.mux())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})

	l := listrank.NewRandomList(2048, 31)
	for i := range l.Value {
		l.Value[i] = int64(i%11) - 5
	}
	wantRank := listrank.RankWith(l, listrank.Options{})
	wantScan := listrank.ScanWith(l, listrank.Options{})

	var b wire.Buffer
	checkServe := func(path string, frame []byte, want []int64) {
		t.Helper()
		status, outcome, body := post(t, hs.URL+path, frame, nil)
		if status != http.StatusOK || outcome != "served" {
			t.Fatalf("%s: status %d outcome %q body %q", path, status, outcome, body)
		}
		got, err := wire.DecodeResponse(body, &b, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: result[%d] = %d, want %d", path, i, got[i], want[i])
			}
		}
	}

	// Repeat tagged traffic on one id: first serve registers and counts
	// a miss, ReorderAfter=1 builds after it, the rest are warm hits.
	// An id+version pins the WHOLE list — head, succ, and values — so a
	// rank frame sharing an id with scan frames must carry the values.
	rankFrame := encodeTagged(t, wire.OpRank, l, true, 1, 1)
	scanFrame := encodeTagged(t, wire.OpScan, l, true, 1, 1)
	for i := 0; i < 3; i++ {
		checkServe("/rank", rankFrame, wantRank)
		checkServe("/scan", scanFrame, wantScan)
	}
	st := srv.Stats()
	if st.ReorderBuilds != 1 || st.ReorderHits < 4 {
		t.Fatalf("after repeat tagged traffic: builds=%d hits=%d misses=%d",
			st.ReorderBuilds, st.ReorderHits, st.ReorderMisses)
	}
	if got := d.registered.Load(); got != 1 {
		t.Fatalf("registrations = %d, want 1", got)
	}

	// Version bump: the list mutates, frames carry version 2. The old
	// layout is dropped, the new contents are registered and served.
	for i := range l.Value {
		l.Value[i] += 100
	}
	wantScan2 := listrank.ScanWith(l, listrank.Options{})
	scan2 := encodeTagged(t, wire.OpScan, l, true, 1, 2)
	checkServe("/scan", scan2, wantScan2)
	checkServe("/scan", scan2, wantScan2)
	if got := d.registered.Load(); got != 2 {
		t.Fatalf("registrations after version bump = %d, want 2", got)
	}
	st2 := srv.Stats()
	if st2.ReorderBuilds != 2 {
		t.Fatalf("builds after version bump = %d, want 2", st2.ReorderBuilds)
	}

	// Reusing a registered id+version with a different length is a
	// client bug the daemon refuses rather than serving wrong data.
	short := listrank.NewRandomList(64, 32)
	status, outcome, _ := post(t, hs.URL+"/rank", encodeTagged(t, wire.OpRank, short, false, 1, 2), nil)
	if status != http.StatusBadRequest || outcome != "badframe" {
		t.Fatalf("length-mismatched id reuse: status %d outcome %q", status, outcome)
	}

	// Registry is capped at 2: id 2 registers, id 3 serves anonymously.
	other := listrank.NewRandomList(512, 33)
	wantOther := listrank.RankWith(other, listrank.Options{})
	checkServe("/rank", encodeTagged(t, wire.OpRank, other, false, 2, 1), wantOther)
	checkServe("/rank", encodeTagged(t, wire.OpRank, other, false, 3, 1), wantOther)
	if got := d.fallback.Load(); got != 1 {
		t.Fatalf("anonymous fallbacks = %d, want 1", got)
	}

	// The /metrics view agrees: hits are exported and nonzero.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := string(mb)
	if hits := metricValue(t, m, "listrank_reorder_hits_total"); hits < 5 {
		t.Errorf("listrank_reorder_hits_total = %d, want >= 5", hits)
	}
	if tagged := metricValue(t, m, "listrankd_tagged_requests_total"); tagged != int64(d.tagged.Load()) {
		t.Errorf("tagged metric %d != counter %d", tagged, d.tagged.Load())
	}
	if bytes := metricValue(t, m, "listrank_reorder_bytes"); bytes <= 0 {
		t.Errorf("listrank_reorder_bytes = %d, want > 0", bytes)
	}
}

// TestServeDrainNoGoroutineLeak checks the daemon's teardown story at
// the test level: serve traffic, close everything, and the goroutine
// count returns to baseline.
func TestServeDrainNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := listrank.NewServer(listrank.ServerOptions{Procs: 2})
	d := newDaemon(srv, 1<<21, 4096, 0, 0)
	hs := httptest.NewServer(d.mux())

	l := listrank.NewRandomList(1024, 21)
	frame := encodeList(t, wire.OpRank, 0, l, false)
	for i := 0; i < 8; i++ {
		status, outcome, _ := post(t, hs.URL+"/rank", frame, nil)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d outcome %q", i, status, outcome)
		}
	}
	hs.CloseClientConnections()
	hs.Close()
	http.DefaultClient.CloseIdleConnections()
	srv.Close()

	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak after drain: %d > baseline %d\n%s",
			got, baseline, buf[:runtime.Stack(buf, true)])
	}
	// The fleet's books must balance at quiescence.
	st := srv.Stats()
	if st.Submitted != st.Served+st.Rejected+st.Expired+st.Poisoned+st.Shed {
		t.Errorf("identity violated after drain: %+v", st)
	}
}
