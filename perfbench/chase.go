package main

import (
	"fmt"
	"runtime"
	"time"

	"listrank"
)

// chaseN is engine-chase's list length: with its value, link, result
// and engine arrays the working set is about 0.5 GiB, past any
// last-level cache, so the Phase 1/3 pointer chase waits on DRAM.
const chaseN = 1 << 24

// chase is the engine-chase workload: one caller, in-process, a warm
// Engine on its own WorkerPool of nproc workers alternating RankInto
// and ScanInto on one random-layout list.
type chase struct {
	cfg   config
	p     problem
	dst   []int64
	pool  *listrank.WorkerPool
	eng   *listrank.Engine
	procs int
}

// setup generates the list and its answers, makes a fresh engine and
// warms it with one checked rank and scan, which grow its arena.
func (c *chase) setup() error {
	if c.pool != nil {
		c.pool.Close()
		c.pool, c.eng = nil, nil
		releaseMemory()
	}
	c.dst = growInt64(c.dst, chaseN)
	c.p.fill(chaseN, newRand(c.cfg.seed, streamLists), c.dst)
	if err := c.p.solve(); err != nil {
		return err
	}
	c.pool = listrank.NewWorkerPool(c.procs)
	c.eng = listrank.NewEngine()
	c.eng.SetPool(c.pool)
	for _, scan := range []bool{false, true} {
		c.call(scan)
		if !c.p.matches(c.dst, scan) {
			return fmt.Errorf("%w: warm-up %s returned a wrong answer", errIncorrect, opName(scan))
		}
	}
	return nil
}

func (c *chase) call(scan bool) {
	opt := listrank.Options{Procs: c.procs}
	if scan {
		c.eng.ScanInto(c.dst, &c.p.list, opt)
	} else {
		c.eng.RankInto(c.dst, &c.p.list, opt)
	}
}

func opName(scan bool) string {
	if scan {
		return "ScanInto"
	}
	return "RankInto"
}

// minChasePairs is the fewest rank+scan pairs a window measures.
const minChasePairs = 2

// measure alternates rank and scan for d (whole pairs, at least
// minChasePairs), checking every answer between calls.
func (c *chase) measure(d time.Duration, tr *tracer, name string, rep *report) (map[string]metric, int64, int64) {
	win := tr.open(name, 0, -1)
	defer tr.close(win)
	type call struct {
		t0, t1 time.Time
		scan   bool
	}
	var calls []call
	var failed int64
	clk := startStealClock()
	start := time.Now()
	for i := 0; i < 2*minChasePairs || i%2 == 1 || time.Since(start) < d; i++ {
		scan := i%2 == 1
		t0 := time.Now()
		c.call(scan)
		t1 := time.Now()
		tr.add("Engine."+opName(scan), win, int64(i), t0, t1)
		if !c.p.matches(c.dst, scan) {
			failed++
			continue
		}
		calls = append(calls, call{t0, t1, scan})
	}
	clk.stop()
	// A request is one rank+scan pair, the loop's cycle: its latency is
	// unimodal, where single calls split into a rank and a scan mode.
	var lat [2][]time.Duration
	var pairs []time.Duration
	var busy, raw time.Duration
	for i, c := range calls {
		op := 0
		if c.scan {
			op = 1
		}
		eff := clk.effective(c.t0, c.t1)
		lat[op] = append(lat[op], eff)
		if c.scan && i > 0 && !calls[i-1].scan {
			pairs = append(pairs, clk.effective(calls[i-1].t0, c.t1))
		}
		busy += eff
		raw += c.t1.Sub(c.t0)
	}
	n := int64(len(calls)) + failed
	rep.note("%s: steal share %.3f over the calls; uncorrected mean call %.6g ms", name, 1-float64(busy)/float64(raw), ms(raw)/float64(len(calls)))
	return map[string]metric{
		"rank_ns_per_elem": {float64(median(lat[0])) / chaseN, "ns"},
		"scan_ns_per_elem": {float64(median(lat[1])) / chaseN, "ns"},
		"rps":              {float64(len(pairs)) / busy.Seconds(), "1/s"},
		"p50_ms":           {ms(latencyQuantile(pairs, failed, 0.50, d)), "ms"},
		"p99_ms":           {ms(latencyQuantile(pairs, failed, 0.99, d)), "ms"},
		"ok_frac":          {float64(len(calls)) / float64(n), "ratio"},
	}, n, failed
}

func runChase(cfg config) (report, error) {
	rep := newReport()
	c := &chase{cfg: cfg, procs: runtime.NumCPU()}
	setup, err := timeSetups(cfg.start, c.setup, func() error { return nil })
	if err != nil {
		return rep, err
	}

	window := cfg.window
	if cfg.trace {
		window = cfg.window / 4
	}
	m, attempted, failed := c.measure(window, nil, "window", &rep)
	rss, err := vmHWM(0)
	if err != nil {
		return rep, err
	}
	rep.e2e = m
	rep.e2e["setup_s"] = setup
	rep.e2e["rss_peak_mb"] = metric{rss, "MiB"}
	rep.attempted, rep.failed = attempted, failed

	if cfg.trace {
		rep.spans = newTracer(cfg.start)
		m, attempted, failed := c.measure(window, rep.spans, "window.traced", &rep)
		rep.traced = m
		rep.traced["setup_s"] = setup
		rep.traced["rss_peak_mb"] = rep.e2e["rss_peak_mb"]
		rep.attempted += attempted
		rep.failed += failed

		lad := newLadder(cfg, &rep, []*problem{&c.p}, []reqSpec{{}, {scan: true}}, 1, nil)
		lad.eng, lad.pool = c.eng, c.pool
		c.eng, c.pool = nil, nil
		if err := lad.run(window * 2); err != nil {
			return rep, err
		}
		// engine-chase is in-process: no wire, daemon or load generator
		// is on its path, so their rungs read zero here.
		for _, k := range []string{"wire.decode_ns_per_elem", "wire.encode_ns_per_elem", "wire.bytes_per_req",
			"listrankd.cpu_us_per_req", "listrankd.self_us_per_req", "loadgen.cpu_us_per_req",
			"server.coalesce_ratio", "server.reorder_hit_ratio", "server.reorder_builds", "server.reorder_evictions"} {
			rep.layers[k] = metric{0, layerUnits[k]}
		}
		rep.note("engine-chase is in-process: the wire, listrankd and load-generator rungs and the daemon's /metrics ratios are not on its path and read 0")
	}
	if rep.failed > 0 {
		return rep, fmt.Errorf("%w: %d of %d calls returned wrong answers", errIncorrect, rep.failed, rep.attempted)
	}
	return rep, nil
}

// layerUnits gives the unit of every per-layer metric that a workload
// may report as zero.
var layerUnits = map[string]string{
	"wire.decode_ns_per_elem":   "ns",
	"wire.encode_ns_per_elem":   "ns",
	"wire.bytes_per_req":        "count",
	"listrankd.cpu_us_per_req":  "us",
	"listrankd.self_us_per_req": "us",
	"loadgen.cpu_us_per_req":    "us",
	"server.coalesce_ratio":     "ratio",
	"server.reorder_hit_ratio":  "ratio",
	"server.reorder_builds":     "count",
	"server.reorder_evictions":  "count",
}
