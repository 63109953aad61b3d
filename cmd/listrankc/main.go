// Command listrankc is the open-loop load generator for listrankd. It
// builds a working set of list problems (sizes drawn from a
// Zipf-over-geometric-buckets mix: many small requests, a heavy tail
// of big ones, the mix the size-binned fleet is built for),
// pre-encodes each as a wire frame, and fires them at the daemon with
// Poisson inter-arrival times — open loop, so submission pressure does
// not fall when the server slows down, and queueing delay shows up in
// the latency tail instead of being hidden by client back-off.
//
//	listrankc [-addr 127.0.0.1:8347] [-n 5000] [-rate 0] [-conns 64]
//	          [-lists 64] [-min 256] [-max 1048576] [-zipf 1.4]
//	          [-seed 1] [-scan-frac 0.3] [-reuse-frac 0]
//	          [-poison-rate 0] [-expire-rate 0] [-quota-frac 0]
//	          [-tenant loadgen] [-badframe-rate 0] [-deadline-ms 0]
//	          [-retries 0] [-retry-budget 0.2] [-expect-shed]
//	          [-verify-max 65536] [-check] [-bench label]
//
// -rate 0 (the default) runs closed-loop with -conns concurrent
// streams, measuring peak throughput; a positive -rate submits at
// that many requests per second regardless of completions.
//
// A fraction of the traffic can be adversarial: -poison-rate sends
// structurally corrupt lists (out-of-range links — the daemon must
// answer 500/poisoned and keep serving), -expire-rate sends the
// largest problem with a 1 ms frame deadline (504/expired),
// -badframe-rate sends truncated frames (400/badframe), and
// -quota-frac tags requests with the X-Tenant header so a daemon
// running with -quota-rate rejects the overflow (429/quota).
//
// -reuse-frac sends that fraction of ordinary requests as tagged
// frames (the wire's list_id/list_version extension), reusing stable
// ids per problem so the Zipf working set's repeat traffic lands in
// the daemon's reorder cache; a small slice of tagged sends carries a
// bumped version to exercise invalidation and re-registration. Rank
// and scan frames use disjoint id spaces because an id+version pins
// the whole list — values included — and the pre-encoded rank frames
// don't carry values. With -reuse-frac > 0 the final metrics
// cross-check additionally asserts the cache actually hit.
//
// -retries enables resilience against overload pushback: a response
// the daemon marked retryable (429/503 with outcome shed, rejected or
// throttled) is re-sent up to that many times with capped exponential
// backoff and full jitter, honoring the daemon's Retry-After header
// as a floor. Retries draw on a global retry budget — every original
// request earns -retry-budget tokens and each retry spends one — so
// the generator amplifies load by at most (1 + budget) even when the
// daemon rejects everything; without that cap a retrying load
// generator IS the retry storm it is meant to measure. Each attempt
// is tallied under its own outcome (a retried request's failed
// attempts are real daemon-side submissions), so the metrics
// cross-check still balances exactly.
//
// Every response is classified by its X-Outcome header. Served
// responses for problems no larger than -verify-max are decoded and
// compared against locally computed ranks/scans. At the end the
// client fetches /metrics and cross-checks the daemon's books against
// its own tallies — the accounting identity
// Submitted = Served + Rejected + Expired + Poisoned + Shed must
// balance end-to-end over the wire, and the quota/decode-error side
// counters must equal what the client sent. With -check any mismatch,
// transport error, or verification failure makes the exit status
// nonzero, which is how the serve-e2e CI job consumes this tool.
// -expect-shed additionally fails the run if the daemon never shed —
// the overload CI leg uses it to prove admission control actually
// engaged at 2x capacity rather than trivially passing idle books.
//
// With -bench LABEL the client prints `go test -bench`-shaped result
// lines (throughput with ns/op, MB/s, and req/s, plus p50/p95/p99
// latency) on stdout for cmd/benchjson; the human-readable report
// moves to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"listrank"
	"listrank/internal/wire"
)

// problem is one pre-encoded request: the frame bytes and, for
// problems small enough to verify, the expected answers. The tagged
// variants carry the list_id/list_version handle extension (two
// versions each, to exercise the daemon's invalidation path); they
// encode the same list, so the expected answers are shared.
type problem struct {
	n          int
	rankFrame  []byte
	scanFrame  []byte
	taggedRank [2][]byte
	taggedScan [2][]byte
	wantRank   []int64
	wantScan   []int64
}

// shot is one request's classified outcome. With retries enabled,
// outcome is the final attempt's; retried lists the outcomes of the
// attempts that were retried (each was a real daemon-side submission,
// so the collector tallies them too), and the byte counters cover all
// attempts. latency is the final attempt's service time only — backoff
// waits are deliberate client-side delay, not server latency.
type shot struct {
	outcome   string // X-Outcome, or "transport"
	latency   time.Duration
	bytesIn   int64
	bytesOut  int64
	verifyErr error
	retried   []string
}

// retryPolicy is the shared budgeted-backoff state. The bucket holds
// milli-tokens: every original request earns earnMilli, every retry
// spends 1000, and a spend that would go negative is refused — the
// cap on total amplification. Backoff is capped exponential with full
// jitter: a uniform draw over (0, min(base<<attempt, max)], floored
// at the server's Retry-After. Full jitter (rather than equal or
// decorrelated) maximizes spread, so synchronized rejection of a
// burst does not re-synchronize into a retry burst.
type retryPolicy struct {
	max       int
	earnMilli int64
	bucket    atomic.Int64
	base      time.Duration
	ceil      time.Duration
}

func (rp *retryPolicy) earn() { rp.bucket.Add(rp.earnMilli) }

func (rp *retryPolicy) spend() bool {
	if rp.bucket.Add(-1000) < 0 {
		rp.bucket.Add(1000)
		return false
	}
	return true
}

func (rp *retryPolicy) wait(attempt int, retryAfter time.Duration) time.Duration {
	hi := rp.base << attempt
	if hi > rp.ceil || hi <= 0 {
		hi = rp.ceil
	}
	w := time.Duration(rand.Int63n(int64(hi))) + 1
	if w < retryAfter {
		w = retryAfter
	}
	return w
}

// retryable reports whether an outcome is worth re-sending: overload
// pushback clears when pressure does. Deterministic failures (poison,
// badframe, quota policy, expiry of an already-stale frame) do not.
func retryable(outcome string) bool {
	switch outcome {
	case "shed", "rejected", "throttled":
		return true
	}
	return false
}

// retryAfterHint parses the Retry-After header as delay-seconds; 0
// when absent or in the (unused here) HTTP-date form.
func retryAfterHint(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// tallies aggregates shots; only the collector goroutine writes it.
type tallies struct {
	byOutcome  map[string]int64
	transport  int64
	retries    int64
	verifyErrs []error
	latencies  []time.Duration // served only
	bytesIn    int64
	bytesOut   int64
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8347", "daemon host:port")
		nReq      = flag.Int("n", 5000, "total requests to send")
		rate      = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		conns     = flag.Int("conns", 64, "closed-loop concurrency / connection pool size")
		lists     = flag.Int("lists", 64, "distinct problems in the working set")
		minN      = flag.Int("min", 256, "smallest list size")
		maxN      = flag.Int("max", 1<<20, "largest list size")
		zipfS     = flag.Float64("zipf", 1.4, "Zipf exponent over size buckets")
		seed      = flag.Int64("seed", 1, "random seed")
		scanFrac  = flag.Float64("scan-frac", 0.3, "fraction of requests that are scans")
		reuseFrac = flag.Float64("reuse-frac", 0, "fraction of ordinary requests sent as tagged (list_id) frames")
		poisonR   = flag.Float64("poison-rate", 0, "fraction of requests with corrupt links")
		expireR   = flag.Float64("expire-rate", 0, "fraction of requests with a 1ms frame deadline")
		badR      = flag.Float64("badframe-rate", 0, "fraction of requests sent as truncated frames")
		quotaFrac = flag.Float64("quota-frac", 0, "fraction of requests tagged with X-Tenant")
		tenant    = flag.String("tenant", "loadgen", "tenant name for quota-tagged requests")
		deadline  = flag.Int("deadline-ms", 0, "X-Deadline-Ms header on ordinary requests (0 = none)")
		retries   = flag.Int("retries", 0, "max retries per request on shed/rejected/throttled pushback (0 = off)")
		retryBud  = flag.Float64("retry-budget", 0.2, "retry tokens earned per original request (caps retry amplification)")
		expShed   = flag.Bool("expect-shed", false, "fail the cross-check if the daemon never shed (overload CI leg)")
		verifyMax = flag.Int("verify-max", 1<<16, "verify served results for lists up to this size")
		check     = flag.Bool("check", false, "exit nonzero on identity mismatch, transport error, or bad result")
		bench     = flag.String("bench", "", "emit benchmark-format lines on stdout under this label")
	)
	flag.Parse()

	base := "http://" + *addr
	if strings.HasPrefix(*addr, "http://") || strings.HasPrefix(*addr, "https://") {
		base = *addr
	}
	report := os.Stdout
	if *bench != "" {
		report = os.Stderr
	}

	r := rand.New(rand.NewSource(*seed))
	probs := buildProblems(r, *lists, *minN, *maxN, *zipfS, *verifyMax, *reuseFrac > 0)

	// The largest problem with a 1 ms frame deadline: under load it is
	// stale before a worker reaches it.
	expireFrame := mustEncode(wire.OpRank, 1, probs[largest(probs)].n, *seed, false)
	// Corrupt problems: links past the end of the array. The encoder
	// passes them through; the daemon's kernel guard must contain the
	// fault.
	var poisonFrames [][]byte
	for i := 0; i < 8; i++ {
		poisonFrames = append(poisonFrames, poisonFrame(r, *minN))
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *conns * 2,
		MaxIdleConnsPerHost: *conns * 2,
		IdleConnTimeout:     90 * time.Second,
	}}

	var (
		wg      sync.WaitGroup
		shots   = make(chan shot, 1024)
		done    = make(chan tallies)
		sem     chan struct{}
		started = time.Now()
	)
	go collect(shots, done)
	if *rate <= 0 {
		sem = make(chan struct{}, maxInt(1, *conns))
	}
	var rp *retryPolicy
	if *retries > 0 {
		rp = &retryPolicy{
			max:       *retries,
			earnMilli: int64(*retryBud * 1000),
			base:      5 * time.Millisecond,
			ceil:      500 * time.Millisecond,
		}
	}

	var taggedSent int64
	for i := 0; i < *nReq; i++ {
		// Draw the request's shape on the dispatch goroutine so the
		// mix is deterministic for a given seed.
		kind := "good"
		switch f := r.Float64(); {
		case f < *badR:
			kind = "bad"
		case f < *badR+*poisonR:
			kind = "poison"
		case f < *badR+*poisonR+*expireR:
			kind = "expire"
		}
		isScan := r.Float64() < *scanFrac
		// Tagged requests reuse the problem's stable list_id; ~2% of
		// them bump the version to exercise invalidation.
		tagVer := -1
		if kind == "good" && r.Float64() < *reuseFrac {
			tagVer = 0
			if r.Float64() < 0.02 {
				tagVer = 1
			}
			taggedSent++
		}
		p := probs[r.Intn(len(probs))]
		pf := poisonFrames[i%len(poisonFrames)]
		hdr := map[string]string{}
		if *deadline > 0 && kind == "good" {
			hdr["X-Deadline-Ms"] = strconv.Itoa(*deadline)
		}
		if *quotaFrac > 0 && r.Float64() < *quotaFrac {
			hdr["X-Tenant"] = *tenant
		}

		if rp != nil {
			rp.earn()
		}
		if *rate > 0 {
			time.Sleep(poissonWait(r, *rate))
		} else {
			sem <- struct{}{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			shots <- fire(client, base, p, pf, expireFrame, kind, isScan, tagVer, hdr, rp)
		}()
	}
	wg.Wait()
	close(shots)
	tl := <-done
	wall := time.Since(started)

	// ---- report ----
	served := tl.byOutcome["served"]
	fmt.Fprintf(report, "listrankc: %d requests in %v (%.1f req/s offered)\n",
		*nReq, wall.Round(time.Millisecond), float64(*nReq)/wall.Seconds())
	for _, k := range []string{"served", "rejected", "expired", "poisoned", "shed", "quota", "badframe"} {
		fmt.Fprintf(report, "  %-9s %d\n", k, tl.byOutcome[k])
	}
	for _, k := range []string{"evicted", "throttled"} {
		if tl.byOutcome[k] > 0 {
			fmt.Fprintf(report, "  %-9s %d\n", k, tl.byOutcome[k])
		}
	}
	if tl.retries > 0 {
		fmt.Fprintf(report, "  retries   %d\n", tl.retries)
	}
	if tl.transport > 0 {
		fmt.Fprintf(report, "  transport %d\n", tl.transport)
	}
	p50, p95, p99 := percentiles(tl.latencies)
	if served > 0 {
		fmt.Fprintf(report, "  latency p50 %v  p95 %v  p99 %v\n",
			p50.Round(time.Microsecond), p95.Round(time.Microsecond), p99.Round(time.Microsecond))
	}
	fmt.Fprintf(report, "  wire bytes: %d out, %d in\n", tl.bytesOut, tl.bytesIn)
	for _, err := range tl.verifyErrs {
		fmt.Fprintf(report, "  VERIFY FAIL: %v\n", err)
	}

	failed := false
	if len(tl.verifyErrs) > 0 {
		failed = true
	}
	if tl.transport > 0 {
		fmt.Fprintf(report, "FAIL: %d transport errors\n", tl.transport)
		failed = true
	}
	if err := crossCheck(client, base, tl, taggedSent, *expShed, report); err != nil {
		fmt.Fprintf(report, "FAIL: metrics cross-check: %v\n", err)
		failed = true
	} else {
		fmt.Fprintln(report, "metrics cross-check: daemon books match client tallies; identity balanced")
	}

	if *bench != "" && served > 0 {
		nsPerOp := float64(wall.Nanoseconds()) / float64(served)
		mbPerS := float64(tl.bytesIn+tl.bytesOut) / wall.Seconds() / 1e6
		reqPerS := float64(served) / wall.Seconds()
		fmt.Printf("BenchmarkServeWire/%s/throughput %d %.0f ns/op %.2f MB/s %.1f req/s\n",
			*bench, served, nsPerOp, mbPerS, reqPerS)
		fmt.Printf("BenchmarkServeWire/%s/p50 1 %d ns/op\n", *bench, p50.Nanoseconds())
		fmt.Printf("BenchmarkServeWire/%s/p95 1 %d ns/op\n", *bench, p95.Nanoseconds())
		fmt.Printf("BenchmarkServeWire/%s/p99 1 %d ns/op\n", *bench, p99.Nanoseconds())
	}

	if failed && *check {
		os.Exit(1)
	}
}

// buildProblems generates the working set: Zipf-mixed sizes, each
// pre-encoded once as a rank frame and a scan frame, with expected
// answers computed locally for the verifiable sizes.
func buildProblems(r *rand.Rand, lists, minN, maxN int, zipfS float64, verifyMax int, tagged bool) []*problem {
	sizes := zipfSizes(r, lists, minN, maxN, zipfS)
	probs := make([]*problem, len(sizes))
	for i, n := range sizes {
		l := listrank.NewRandomList(n, uint64(r.Int63()))
		for j := range l.Value {
			l.Value[j] = int64(j%11) - 5
		}
		rf, err := wire.AppendRequest(nil, wire.OpRank, 0, l.Head, l.Next, nil)
		if err != nil {
			fatal("encode rank frame: %v", err)
		}
		sf, err := wire.AppendRequest(nil, wire.OpScan, 0, l.Head, l.Next, l.Value)
		if err != nil {
			fatal("encode scan frame: %v", err)
		}
		p := &problem{n: n, rankFrame: rf, scanFrame: sf}
		if tagged {
			// Stable ids per problem, disjoint spaces for rank and scan
			// (an id+version pins values too, and the rank frames carry
			// none). Two versions of the same list: a version bump is a
			// contract about change, not a requirement of it, and the
			// flapping exercises invalidate + re-register on the daemon.
			for v := uint32(0); v < 2; v++ {
				p.taggedRank[v], err = wire.AppendRequestTagged(nil, wire.OpRank, 0, l.Head, l.Next, nil, uint32(i+1), v+1)
				if err != nil {
					fatal("encode tagged rank frame: %v", err)
				}
				p.taggedScan[v], err = wire.AppendRequestTagged(nil, wire.OpScan, 0, l.Head, l.Next, l.Value, uint32(i+1)|1<<31, v+1)
				if err != nil {
					fatal("encode tagged scan frame: %v", err)
				}
			}
		}
		if n <= verifyMax {
			p.wantRank = listrank.RankWith(l, listrank.Options{})
			p.wantScan = listrank.ScanWith(l, listrank.Options{})
		}
		probs[i] = p
	}
	return probs
}

// zipfSizes draws n request sizes from geometric buckets
// [min·2^k, min·2^k+1) with Zipf(k) frequency and uniform jitter
// inside the bucket, clamped to max. zipfS must be > 1 and min >= 1.
func zipfSizes(r *rand.Rand, n, min, max int, zipfS float64) []int {
	buckets := 0
	for s := min; s < max; s *= 2 {
		buckets++
	}
	zipf := rand.NewZipf(r, zipfS, 1, uint64(buckets))
	sizes := make([]int, n)
	for i := range sizes {
		s := min << zipf.Uint64()
		s += r.Intn(s) // jitter within the bucket
		if s > max {
			s = max
		}
		sizes[i] = s
	}
	return sizes
}

// poissonWait returns one exponential inter-arrival wait for a Poisson
// process at rate arrivals per second; 0 when rate <= 0 (open
// throttle).
func poissonWait(r *rand.Rand, rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(r.ExpFloat64() / rate * float64(time.Second))
}

// mustEncode builds a fresh random list of size n and encodes it with
// the given frame deadline.
func mustEncode(op wire.Op, deadlineMs uint32, n int, seed int64, values bool) []byte {
	l := listrank.NewRandomList(n, uint64(seed)+0x9E37)
	var v []int64
	if values {
		v = l.Value
	}
	f, err := wire.AppendRequest(nil, op, deadlineMs, l.Head, l.Next, v)
	if err != nil {
		fatal("encode: %v", err)
	}
	return f
}

// poisonFrame encodes a small list whose head link points past the
// end of the array — structurally valid on the wire, poisonous to the
// kernel.
func poisonFrame(r *rand.Rand, n int) []byte {
	l := listrank.NewRandomList(n, uint64(r.Int63()))
	l.Next[l.Head] = int64(n) + 1 + int64(r.Intn(100))
	f, err := wire.AppendRequest(nil, wire.OpRank, 0, l.Head, l.Next, nil)
	if err != nil {
		fatal("encode poison: %v", err)
	}
	return f
}

func largest(probs []*problem) int {
	best := 0
	for i, p := range probs {
		if p.n > probs[best].n {
			best = i
		}
	}
	return best
}

// fire sends one request and classifies the response, re-sending on
// retryable pushback within the retry policy's budget. tagVer < 0
// sends the anonymous frame; 0 or 1 sends the tagged frame carrying
// that version of the problem's list_id.
func fire(client *http.Client, base string, p *problem, poison, expire []byte,
	kind string, isScan bool, tagVer int, hdr map[string]string, rp *retryPolicy) shot {

	frame := p.rankFrame
	path := "/rank"
	var want []int64
	switch kind {
	case "poison":
		frame = poison
	case "expire":
		frame = expire
	case "bad":
		frame = p.rankFrame[:wire.ReqHeaderLen/2]
	default:
		if isScan {
			frame, path, want = p.scanFrame, "/scan", p.wantScan
			if tagVer >= 0 {
				frame = p.taggedScan[tagVer]
			}
		} else {
			want = p.wantRank
			if tagVer >= 0 {
				frame = p.taggedRank[tagVer]
			}
		}
	}

	s, ra := attempt(client, base+path, frame, hdr, p, path, want)
	for att := 0; rp != nil && att < rp.max && retryable(s.outcome); att++ {
		if !rp.spend() {
			break
		}
		time.Sleep(rp.wait(att, ra))
		prev := s
		s, ra = attempt(client, base+path, frame, hdr, p, path, want)
		s.retried = append(prev.retried, prev.outcome)
		s.bytesIn += prev.bytesIn
		s.bytesOut += prev.bytesOut
	}
	return s
}

// attempt sends the frame once, classifying the response and parsing
// its Retry-After hint.
func attempt(client *http.Client, url string, frame []byte, hdr map[string]string,
	p *problem, path string, want []int64) (shot, time.Duration) {

	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(string(frame)))
	if err != nil {
		return shot{outcome: "transport", verifyErr: err}, 0
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	req.ContentLength = int64(len(frame))

	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return shot{outcome: "transport"}, 0
	}
	ra := retryAfterHint(resp)
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if rerr != nil {
		return shot{outcome: "transport"}, ra
	}

	s := shot{
		outcome:  resp.Header.Get("X-Outcome"),
		latency:  lat,
		bytesOut: int64(len(frame)),
		bytesIn:  int64(len(body)),
	}
	if s.outcome == "" {
		s.outcome = "transport"
	}
	if s.outcome == "served" && want != nil {
		var b wire.Buffer
		got, err := wire.DecodeResponse(body, &b, 0)
		switch {
		case err != nil:
			s.verifyErr = fmt.Errorf("n=%d %s: decode response: %v", p.n, path, err)
		case len(got) != len(want):
			s.verifyErr = fmt.Errorf("n=%d %s: %d results, want %d", p.n, path, len(got), len(want))
		default:
			for i := range got {
				if got[i] != want[i] {
					s.verifyErr = fmt.Errorf("n=%d %s: result[%d] = %d, want %d", p.n, path, i, got[i], want[i])
					break
				}
			}
		}
	}
	return s, ra
}

// collect drains the shots channel into aggregate tallies. Retried
// attempts were real daemon-side submissions, so each one's outcome
// is tallied alongside the final attempt's — that is what keeps the
// per-bucket metrics cross-check exact under retries.
func collect(shots <-chan shot, done chan<- tallies) {
	tl := tallies{byOutcome: map[string]int64{}}
	for s := range shots {
		for _, o := range s.retried {
			tl.retries++
			if o == "transport" {
				tl.transport++
			} else {
				tl.byOutcome[o]++
			}
		}
		if s.outcome == "transport" {
			tl.transport++
			continue
		}
		tl.byOutcome[s.outcome]++
		tl.bytesIn += s.bytesIn
		tl.bytesOut += s.bytesOut
		if s.outcome == "served" {
			tl.latencies = append(tl.latencies, s.latency)
		}
		if s.verifyErr != nil && len(tl.verifyErrs) < 10 {
			tl.verifyErrs = append(tl.verifyErrs, s.verifyErr)
		}
	}
	done <- tl
}

// crossCheck fetches /metrics and verifies the daemon's books against
// the client's own outcome tallies; when tagged traffic was sent, the
// daemon's reorder cache must also have hit at least once. It assumes
// this client was the only traffic since the daemon booted (true in
// the e2e harness).
func crossCheck(client *http.Client, base string, tl tallies, taggedSent int64, expectShed bool, report io.Writer) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("fetch /metrics: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("read /metrics: %w", err)
	}
	m := string(body)
	get := func(name string) (int64, error) {
		for _, line := range strings.Split(m, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					return 0, fmt.Errorf("metric %s: bad value %q", name, rest)
				}
				return int64(v), nil
			}
		}
		return 0, fmt.Errorf("metric %s not found", name)
	}

	var firstErr error
	expect := func(name string, want int64) {
		got, err := get(name)
		if err == nil && got != want {
			err = fmt.Errorf("%s = %d, client counted %d", name, got, want)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	submitted, err := get("listrank_submitted_total")
	if err != nil {
		return err
	}
	served, _ := get("listrank_served_total")
	rejected, _ := get("listrank_rejected_total")
	expired, _ := get("listrank_expired_total")
	poisoned, _ := get("listrank_poisoned_total")
	shed, _ := get("listrank_shed_total")
	if submitted != served+rejected+expired+poisoned+shed {
		return fmt.Errorf("identity violated on the daemon: submitted %d != %d+%d+%d+%d+%d",
			submitted, served, rejected, expired, poisoned, shed)
	}
	fmt.Fprintf(report, "  daemon identity: %d submitted = %d served + %d rejected + %d expired + %d poisoned + %d shed\n",
		submitted, served, rejected, expired, poisoned, shed)
	if expectShed && shed == 0 {
		return fmt.Errorf("-expect-shed: daemon never shed (listrank_shed_total = 0) — admission control did not engage")
	}

	// Every daemon-side submission is one the client sent, segmented
	// (-auto-segment) or not, so each bucket equals its tally.
	expect("listrank_shed_total", tl.byOutcome["shed"])
	expect("listrank_served_total", tl.byOutcome["served"])
	expect("listrank_rejected_total", tl.byOutcome["rejected"])
	expect("listrank_expired_total", tl.byOutcome["expired"])
	expect("listrank_poisoned_total", tl.byOutcome["poisoned"])
	if segmented, err := get("listrank_segmented_total"); err == nil && segmented > 0 {
		fmt.Fprintf(report, "  segmented engine: %d requests\n", segmented)
	}
	expect("listrankd_quota_rejected_total", tl.byOutcome["quota"])
	expect("listrankd_decode_errors_total", tl.byOutcome["badframe"])

	if taggedSent > 0 {
		hits, err := get("listrank_reorder_hits_total")
		if err != nil {
			return err
		}
		misses, _ := get("listrank_reorder_misses_total")
		builds, _ := get("listrank_reorder_builds_total")
		fmt.Fprintf(report, "  reorder cache: %d hits, %d misses, %d builds (%d tagged requests sent)\n",
			hits, misses, builds, taggedSent)
		if hits == 0 && firstErr == nil {
			firstErr = fmt.Errorf("sent %d tagged requests but listrank_reorder_hits_total = 0", taggedSent)
		}
	}
	return firstErr
}

// percentiles returns p50/p95/p99 of the served latencies.
func percentiles(lat []time.Duration) (p50, p95, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return at(0.50), at(0.95), at(0.99)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "listrankc: "+format+"\n", args...)
	os.Exit(2)
}
