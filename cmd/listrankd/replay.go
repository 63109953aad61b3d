package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"listrank"
	"listrank/internal/trace"
)

// runReplay is the original trace-replay harness, preserved verbatim
// behind the -replay subcommand: request sizes drawn from a
// Zipf-over-geometric-buckets distribution, arrivals paced by a
// Poisson process, replayed in-process against a listrank.Server.
// See the command doc in main.go for the flag reference.
func runReplay(args []string) {
	fs := flag.NewFlagSet("listrankd -replay", flag.ExitOnError)
	n := fs.Int("n", 2000, "requests in the trace")
	procs := fs.Int("procs", 0, "total fleet worker budget (0 = GOMAXPROCS)")
	binsFlag := fs.String("bins", "", "comma-separated size-bin upper bounds (empty = server default)")
	queue := fs.Int("queue", 1024, "per-shard admission queue depth")
	maxBatch := fs.Int("maxbatch", 64, "max requests coalesced per dispatch")
	reject := fs.Bool("reject", false, "reject-on-full backpressure instead of blocking")
	rate := fs.Float64("rate", 0, "mean arrivals per second (0 = open throttle)")
	zipfS := fs.Float64("zipf", 1.4, "Zipf exponent over geometric size buckets (> 1)")
	minSize := fs.Int("min", 256, "smallest request size")
	maxSize := fs.Int("max", 1<<20, "largest request size")
	nLists := fs.Int("lists", 64, "distinct lists to cycle through")
	seed := fs.Uint64("seed", 1, "trace seed")
	compare := fs.Bool("compare", false, "also replay the trace through the naive per-request loop")
	deadline := fs.Duration("deadline", 0, "per-request deadline relative to submission (0 = none)")
	poisonRate := fs.Float64("poison-rate", 0, "fraction of requests with a corrupted (out-of-range link) list")
	fs.Parse(args)

	bounds, err := parseBins(*binsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listrankd:", err)
		os.Exit(2)
	}
	if *n < 1 || *minSize < 1 || *maxSize < *minSize || *zipfS <= 1 || *nLists < 1 {
		fmt.Fprintln(os.Stderr, "listrankd: need -n ≥ 1, 1 ≤ -min ≤ -max, -zipf > 1, -lists ≥ 1")
		os.Exit(2)
	}
	if *poisonRate < 0 || *poisonRate > 1 {
		fmt.Fprintln(os.Stderr, "listrankd: need 0 ≤ -poison-rate ≤ 1")
		os.Exit(2)
	}

	// Build the trace: geometric size buckets [min·2^k, min·2^k+1)
	// with Zipf(k) frequency, so most requests are small (the
	// coalescing regime) with a heavy tail reaching the top bin.
	r := rand.New(rand.NewSource(int64(*seed)))
	sizes := trace.Sizes(r, *n, *minSize, *maxSize, *zipfS)

	// A fixed set of lists is cycled through by size so the trace's
	// working set is bounded. The engines only read a list, but each
	// problem's rank and sc result buffers are shared by every request
	// on it, so each problem carries a mutex held from submission until
	// its ticket completes, serializing requests per problem while
	// keeping the problems themselves concurrent.
	type problem struct {
		mu       sync.Mutex
		l        *listrank.List
		rank, sc []int64
	}
	problems := make([]*problem, 0, *nLists)
	bySize := make(map[int]*problem)
	warmSizes := []int{}
	for _, s := range sizes {
		if _, ok := bySize[s]; ok {
			continue
		}
		if len(problems) < *nLists {
			p := &problem{
				l:    listrank.NewRandomList(s, *seed+uint64(s)),
				rank: make([]int64, s),
				sc:   make([]int64, s),
			}
			problems = append(problems, p)
			bySize[s] = p
			warmSizes = append(warmSizes, s)
		} else {
			// List budget exhausted: alias this size onto an existing
			// problem (the request then uses that problem's true size).
			bySize[s] = problems[len(bySize)%len(problems)]
		}
	}

	// Poisoned traffic cycles through a small ring of corrupt lists
	// (out-of-range link at the head), serialized per problem exactly
	// like the good ones, since they share result buffers the same way.
	var poisons []*problem
	if *poisonRate > 0 {
		for i := 0; i < 8; i++ {
			p := &problem{
				l:    listrank.NewRandomList(*minSize, *seed+uint64(i)+0xbad),
				rank: make([]int64, *minSize),
				sc:   make([]int64, *minSize),
			}
			p.l.Next[p.l.Head] = int64(*minSize) + 1
			poisons = append(poisons, p)
		}
	}

	srv := listrank.NewServer(listrank.ServerOptions{
		Procs:       *procs,
		BinBounds:   bounds,
		QueueDepth:  *queue,
		MaxCoalesce: *maxBatch,
		Reject:      *reject,
		WarmSizes:   warmSizes,
	})
	defer srv.Close()

	hw := *procs
	if hw <= 0 {
		hw = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("listrankd: %d requests, %d distinct lists, sizes %d..%d (zipf %.2f), fleet procs %d\n",
		*n, len(problems), *minSize, *maxSize, *zipfS, hw)

	// Replay. Arrival pacing happens on the submitting goroutine; a
	// waiter goroutine per request records completion latency.
	latencies := make([]time.Duration, *n)
	errs := make([]error, *n)
	var bytes atomic.Int64 // bytes of *served* requests only
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *n; i++ {
		if *rate > 0 {
			time.Sleep(trace.PoissonWait(r, *rate))
		}
		p := bySize[sizes[i]]
		if len(poisons) > 0 && r.Float64() < *poisonRate {
			p = poisons[i%len(poisons)]
		}
		// Serialize in-flight requests per list (see the problem type);
		// a hot list can therefore delay submission past its Poisson
		// arrival time, which is the natural client behavior anyway.
		p.mu.Lock()
		req := listrank.Request{Op: listrank.OpRank, List: p.l, Dst: p.rank}
		if i%2 == 1 {
			req = listrank.Request{Op: listrank.OpScan, List: p.l, Dst: p.sc}
		}
		if *deadline > 0 {
			req.Deadline = time.Now().Add(*deadline)
		}
		submitted := time.Now()
		tk := srv.Submit(req)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer p.mu.Unlock()
			_, err := tk.Wait()
			latencies[i] = time.Since(submitted)
			errs[i] = err
			if err == nil {
				bytes.Add(int64(8 * p.l.Len()))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := srv.Stats()
	var ok, nRejected, nExpired, nPoisoned int
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, listrank.ErrDeadlineExceeded) || errors.Is(err, listrank.ErrCanceled):
			nExpired++
		case errors.Is(err, listrank.ErrPanic):
			nPoisoned++
		default:
			nRejected++
		}
	}
	fmt.Printf("served %d/%d requests in %v  (%.0f req/s, %.1f MB/s)\n",
		ok, *n, elapsed.Round(time.Millisecond),
		float64(ok)/elapsed.Seconds(), float64(bytes.Load())/1e6/elapsed.Seconds())
	fmt.Printf("fleet: %d dispatches for %d served (%.2f requests/dispatch), %d coalesced, %d rejected\n",
		st.Dispatches, st.Served, float64(st.Served)/float64(max(st.Dispatches, 1)),
		st.Coalesced, st.Rejected)
	for b, served := range st.BinServed {
		fmt.Printf("  bin %d: %d served\n", b, served)
	}
	if *deadline > 0 || *poisonRate > 0 || nRejected > 0 {
		fmt.Printf("failure domains: %d rejected, %d expired, %d poisoned (server: %d/%d/%d)\n",
			nRejected, nExpired, nPoisoned, st.Rejected, st.Expired, st.Poisoned)
	}
	// Percentiles over served requests only: a rejection completes in
	// microseconds (and an expiry or contained fault is not a serve)
	// and would deflate every quantile under -reject.
	served := latencies[:0]
	for i, d := range latencies {
		if errs[i] == nil {
			served = append(served, d)
		}
	}
	if len(served) > 0 {
		sort.Slice(served, func(i, j int) bool { return served[i] < served[j] })
		q := func(p float64) time.Duration { return served[int(p*float64(len(served)-1))] }
		fmt.Printf("latency (served): p50 %v  p90 %v  p99 %v  max %v\n",
			q(.50).Round(time.Microsecond), q(.90).Round(time.Microsecond),
			q(.99).Round(time.Microsecond), served[len(served)-1].Round(time.Microsecond))
	}

	if *compare {
		start = time.Now()
		for i := 0; i < *n; i++ {
			p := bySize[sizes[i]]
			if i%2 == 1 {
				_ = listrank.ScanWith(p.l, listrank.Options{})
			} else {
				_ = listrank.RankWith(p.l, listrank.Options{})
			}
		}
		naive := time.Since(start)
		fmt.Printf("naive per-request loop: %v  (%.2fx the fleet's time)\n",
			naive.Round(time.Millisecond), float64(naive)/float64(elapsed))
	}
}

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
