package main

import (
	"fmt"
	"runtime"
	"time"

	"listrank"
	"listrank/internal/core"
	"listrank/internal/kernel"
	"listrank/internal/list"
	"listrank/internal/serial"
)

// ladder replays a workload's inputs down the layers, timing each
// layer's public functions from outside: serial walk → chase kernels
// and sequential kernels → core at one worker → Engine at nproc and at
// one worker → in-process Server → wire codec. Every call is checked
// against the serial-walk answers and recorded as a span under its
// rung's span. Wall times are scaled by the share of time the machine
// kept over the rung, as the end-to-end windows are; spans keep the
// raw instants.
type ladder struct {
	cfg      config
	rep      *report
	tr       *tracer
	probs    []*problem
	seq      []reqSpec // one round of the workload's request sequence
	inflight int
	frames   [][4][]byte // nil when the workload does not use the wire
	eng      *listrank.Engine
	pool     *listrank.WorkerPool
	procs    int
	dst      []int64
	maxN     int

	rung      time.Duration // time budget per rung; every rung makes at least one pass
	attempted int64
	failed    int64

	// Rung results other rungs derive from.
	engRankNs    float64 // Engine.RankInto at nproc, ns/elem
	engNprocNs   float64 // Engine at nproc, rank+scan ns per pass
	serverCPUUs  float64 // in-process Server rung, CPU us per request
	wireUsPerReq float64 // wire rung, decode+encode us per request
}

func newLadder(cfg config, rep *report, probs []*problem, seq []reqSpec, inflight int, frames [][4][]byte) *ladder {
	l := &ladder{cfg: cfg, rep: rep, tr: rep.spans, probs: probs, seq: seq, inflight: inflight, frames: frames, procs: runtime.NumCPU()}
	for _, p := range probs {
		l.maxN = max(l.maxN, p.n())
	}
	return l
}

const ladderRungs = 7

// run times every rung within about budget in total. It takes over
// l.eng and l.pool when set (warm at the workload's sizes) and
// otherwise makes and warms an Engine on its own pool of nproc
// workers. Each rung's working memory is released before the next
// rung allocates its own.
func (l *ladder) run(budget time.Duration) error {
	l.rung = budget / ladderRungs
	l.dst = growInt64(l.dst, l.maxN)
	if l.eng == nil {
		l.pool = listrank.NewWorkerPool(l.procs)
		l.eng = listrank.NewEngine()
		l.eng.SetPool(l.pool)
		for _, p := range l.probs {
			for _, procs := range []int{1, l.procs} {
				l.eng.RankInto(l.dst[:p.n()], &p.list, listrank.Options{Procs: procs})
				l.eng.ScanInto(l.dst[:p.n()], &p.list, listrank.Options{Procs: procs})
			}
		}
	}
	l.engineRungs()
	l.pool.Close()
	l.eng, l.pool = nil, nil
	for _, rung := range []func(){l.serialRung, l.coreKernelRung, l.seqRung, l.serverRung} {
		releaseMemory()
		rung()
	}
	if l.frames != nil {
		l.wireRung()
	}
	l.rep.attempted += l.attempted
	l.rep.failed += l.failed
	if l.failed > 0 {
		return fmt.Errorf("%w: %d ladder calls returned wrong answers", errIncorrect, l.failed)
	}
	return nil
}

// passes runs pass at least min times and until the rung budget is
// spent. It returns the share of the time the machine kept (1 - steal
// share, see stealClock), by which the rung scales its wall times. The
// ticks are read only before and after, so that nothing else in the
// process allocates while the engine rungs count allocations.
func (l *ladder) passes(min int, pass func()) float64 {
	t0 := readTicks()
	for i := 0; i < min || time.Since(t0.t) < l.rung; i++ {
		pass()
	}
	return 1 - stealShare(t0, readTicks())
}

func (l *ladder) verify(p *problem, got []int64, scan bool) {
	l.attempted++
	if !p.matches(got, scan) {
		l.failed++
	}
}

func (l *ladder) set(name string, v float64, unit string) {
	l.rep.layers[name] = metric{v, unit}
}

// totalN is the element count of one pass over the workload's lists.
func (l *ladder) totalN() int64 {
	var n int64
	for _, p := range l.probs {
		n += int64(p.n())
	}
	return n
}

// engineRungs times the Engine on every list at Procs=nproc on its own
// pool (the par rung's numerator) and the request sequence at Procs=1
// (the compute floor of a request), counting heap allocations around
// both; spans are recorded after each pass so they allocate outside it.
func (l *ladder) engineRungs() {
	rung := l.tr.open("ladder.engine", 0, -1)
	defer l.tr.close(rung)
	type call struct {
		name   string
		t0, t1 time.Time
	}
	calls := make([]call, 0, max(2*len(l.probs), len(l.seq)))
	var ms0, ms1 runtime.MemStats
	var mallocs, ncalls uint64
	count := func() {
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		ncalls += uint64(len(calls))
		for i, c := range calls {
			l.tr.add(c.name, rung, int64(i), c.t0, c.t1)
		}
	}

	var rank, all []float64
	keep := l.passes(1, func() {
		calls = calls[:0]
		var tr, ta time.Duration
		runtime.ReadMemStats(&ms0)
		for _, p := range l.probs {
			dst := l.dst[:p.n()]
			t0 := time.Now()
			l.eng.RankInto(dst, &p.list, listrank.Options{Procs: l.procs})
			t1 := time.Now()
			l.verify(p, dst, false)
			t2 := time.Now()
			l.eng.ScanInto(dst, &p.list, listrank.Options{Procs: l.procs})
			t3 := time.Now()
			l.verify(p, dst, true)
			calls = append(calls, call{"Engine.RankInto", t0, t1}, call{"Engine.ScanInto", t2, t3})
			tr += t1.Sub(t0)
			ta += t1.Sub(t0) + t3.Sub(t2)
		}
		count()
		rank = append(rank, float64(tr)/float64(l.totalN()))
		all = append(all, float64(ta))
	})
	l.engRankNs, l.engNprocNs = keep*medianF(rank), keep*medianF(all)

	var perReq []float64
	keep = l.passes(1, func() {
		calls = calls[:0]
		var t time.Duration
		runtime.ReadMemStats(&ms0)
		for _, rs := range l.seq {
			p := l.probs[rs.list]
			dst := l.dst[:p.n()]
			t0 := time.Now()
			if rs.scan {
				l.eng.ScanInto(dst, &p.list, listrank.Options{Procs: 1})
			} else {
				l.eng.RankInto(dst, &p.list, listrank.Options{Procs: 1})
			}
			t1 := time.Now()
			l.verify(p, dst, rs.scan)
			calls = append(calls, call{"Engine.Procs1", t0, t1})
			t += t1.Sub(t0)
		}
		count()
		perReq = append(perReq, us(t)/float64(len(l.seq)))
	})
	l.set("engine.us_per_req", keep*medianF(perReq), "us")
	l.set("engine.allocs_per_call", float64(mallocs)/float64(ncalls), "count")
}

// serialRung times serial.RanksInto, the paper's baseline.
func (l *ladder) serialRung() {
	rung := l.tr.open("ladder.serial", 0, -1)
	defer l.tr.close(rung)
	var nsPerElem []float64
	keep := l.passes(1, func() {
		var t time.Duration
		for i, p := range l.probs {
			il := list.List{Next: p.list.Next, Value: p.list.Value, Head: p.list.Head}
			dst := l.dst[:p.n()]
			t0 := time.Now()
			serial.RanksInto(dst, &il)
			t1 := time.Now()
			t += t1.Sub(t0)
			l.tr.add("serial.RanksInto", rung, int64(i), t0, t1)
			l.verify(p, dst, false)
		}
		nsPerElem = append(nsPerElem, float64(t)/float64(l.totalN()))
	})
	s := keep * medianF(nsPerElem)
	l.set("serial.rank_ns_per_elem", s, "ns")
	l.set("serial.speedup", s/l.engRankNs, "x")
	l.rep.note("serial.speedup = serial.rank_ns_per_elem %.4g / Engine.RankInto at Procs=%d %.4g ns/elem on the same lists",
		s, l.procs, l.engRankNs)
}

// coreKernelPasses is the fewest passes of the core and kernel rung:
// its self times are differences of the two, so both are sampled
// alternately, list by list, and the differences taken per pass.
const coreKernelPasses = 2

// coreKernelRung times core.RanksInto and core.ScanInto at one worker
// with a held Scratch, reading the work counts from
// core.Options.Stats, and alternates each call with the same op's
// Phase 1 and Phase 3 chase kernels — SumEnc and ExpandEnc for rank,
// SumAdd and ExpandAdd for scan — on one worker with
// kernel.DefaultWidth(n) lanes, over sublists cut here at
// core.DefaultM(n) random splitters (Phase 2 runs here, untimed).
func (l *ladder) coreKernelRung() {
	rung := l.tr.open("ladder.core+kernel", 0, -1)
	defer l.tr.close(rung)
	sc := core.NewScratch()
	var cut kernelCut
	var links, sublists, phase2 int64
	var coreNs, kernNs, selfNs [2][]float64
	coreNames := [2]string{"core.RanksInto", "core.ScanInto"}
	keep := l.passes(coreKernelPasses, func() {
		var tc, tk [2]time.Duration
		links, sublists, phase2 = 0, 0, 0
		for i, p := range l.probs {
			il := list.List{Next: p.list.Next, Value: p.list.Value, Head: p.list.Head}
			dst := l.dst[:p.n()]
			cut.cut(p, l.cfg.seed, i)
			for op, scan := range []bool{false, true} {
				var st core.Stats
				o := core.Options{Procs: 1, Stats: &st}
				t0 := time.Now()
				if scan {
					core.ScanInto(dst, &il, o, sc)
				} else {
					core.RanksInto(dst, &il, o, sc)
				}
				t1 := time.Now()
				tc[op] += t1.Sub(t0)
				l.tr.add(coreNames[op], rung, int64(i), t0, t1)
				l.verify(p, dst, scan)
				links += st.LinksTraversed
				if !scan {
					sublists += int64(st.Sublists)
					phase2 += int64(st.Phase2Len)
				}

				d, ok := cut.chase(p, dst, scan, l.tr, rung, int64(i))
				tk[op] += d
				l.attempted++
				if !ok {
					l.failed++
				}
			}
		}
		n := float64(l.totalN())
		for op := range tc {
			coreNs[op] = append(coreNs[op], float64(tc[op])/n)
			kernNs[op] = append(kernNs[op], float64(tk[op])/(2*n))
			selfNs[op] = append(selfNs[op], float64(tc[op]-tk[op])/n)
		}
	})
	for op, name := range []string{"rank", "scan"} {
		l.set("core."+name+"_ns_per_elem", keep*medianF(coreNs[op]), "ns")
		l.set("kernel."+name+"_chase_ns_per_link", keep*medianF(kernNs[op]), "ns")
		l.set("core."+name+"_self_ns_per_elem", keep*medianF(selfNs[op]), "ns")
	}
	l.set("kernel.chase_ns_per_link", keep*(medianF(kernNs[0])+medianF(kernNs[1]))/2, "ns")
	l.set("core.links_per_elem", float64(links)/float64(2*l.totalN()), "count")
	l.set("core.sublists", float64(sublists), "count")
	l.set("core.phase2_len", float64(phase2), "count")
	coreAll := keep * (medianF(coreNs[0]) + medianF(coreNs[1])) * float64(l.totalN())
	l.set("par.speedup", coreAll/l.engNprocNs, "x")
	l.rep.note("core.{rank,scan}_self_ns_per_elem = core.{rank,scan}_ns_per_elem - kernel Phase 1+3 time per element (2 x kernel.{rank,scan}_chase_ns_per_link), per pass of alternating calls: set-up, Phase 2 and restore")
	l.rep.note("kernel.chase_ns_per_link is the mean of the rank (SumEnc+ExpandEnc) and scan (SumAdd+ExpandAdd) figures; a link is one vertex visit of Phase 1 or Phase 3")
	l.rep.note("core counts are one pass over the workload's lists: links per element over rank+scan (core.Stats counts Phase 1 and 3 for rank, Phase 1 for scan), sublists and Phase 2 length of the rank calls (lists at or below core's serial cutoff of 1024 count none)")
	l.rep.note("par.speedup = core at Procs=1 %.4g ms / Engine at Procs=%d %.4g ms, rank+scan over the workload's lists (%d-CPU scaling)",
		coreAll/1e6, l.procs, l.engNprocNs/1e6, l.procs)
}

// kernelCut is one list cut into sublists for the kernel rung.
type kernelCut struct {
	r, h, sum, cur, pfx []int64 // per sublist: splitter, head, Phase 1 sum, tail, prefix
	savedNext, savedVal []int64
	enc                 []uint64
	mark                []uint64
	tail                int64
}

// cut draws core.DefaultM(n) distinct splitters (never the tail) from
// the seed and the list's index.
func (k *kernelCut) cut(p *problem, seed uint64, idx int) {
	n := p.n()
	m := core.DefaultM(n)
	for v, r := range p.rank {
		if int(r) == n-1 {
			k.tail = int64(v)
		}
	}
	k.r = growInt64(k.r, m+1)
	k.h = growInt64(k.h, m+1)
	k.sum = growInt64(k.sum, m+1)
	k.cur = growInt64(k.cur, m+1)
	k.pfx = growInt64(k.pfx, m+1)
	k.savedNext = growInt64(k.savedNext, m+1)
	k.savedVal = growInt64(k.savedVal, m+1)
	words := (n + 63) / 64
	if cap(k.mark) < words {
		k.mark = make([]uint64, words)
	}
	k.mark = k.mark[:words]
	clear(k.mark)
	k.mark[k.tail/64] |= 1 << (k.tail % 64)
	r := newRand(seed, streamSplitters+uint64(idx)<<8)
	k.r[0] = -1
	for j := 1; j <= m; {
		q := int64(r.IntN(n))
		if k.mark[q/64]&(1<<(q%64)) != 0 {
			continue
		}
		k.mark[q/64] |= 1 << (q % 64)
		k.r[j] = q
		j++
	}
}

// chase runs one op's Phase 1 and Phase 3 kernels over the cut,
// returning their summed time and whether out matched the oracle.
func (k *kernelCut) chase(p *problem, out []int64, scan bool, tr *tracer, parent int32, req int64) (time.Duration, bool) {
	n, m := p.n(), len(k.r)-1
	next, val := p.list.Next, p.list.Value
	lanes := kernel.DefaultWidth(n)
	k.h[0] = p.list.Head
	if scan {
		// Destructive initialization, as the engine does it: each
		// splitter becomes a sublist tail (self-loop, identity value);
		// the originals are restored below.
		for j := 1; j <= m; j++ {
			q := k.r[j]
			k.savedNext[j], k.savedVal[j] = next[q], val[q]
			k.h[j] = next[q]
			next[q], val[q] = q, 0
		}
	} else {
		k.enc = growUint64(k.enc, n)
		for v, nx := range next {
			k.enc[v] = uint64(nx)<<32 | 1
		}
		k.enc[k.tail] = uint64(k.tail) << 32
		for j := 1; j <= m; j++ {
			q := k.r[j]
			k.h[j] = next[q]
			k.enc[q] = uint64(q) << 32
		}
	}
	names := [2][2]string{{"kernel.SumEnc", "kernel.ExpandEnc"}, {"kernel.SumAdd", "kernel.ExpandAdd"}}
	op := 0
	if scan {
		op = 1
	}
	t0 := time.Now()
	if scan {
		kernel.SumAdd(next, val, k.h, k.sum, k.cur, 0, m+1, lanes)
	} else {
		kernel.SumEnc(k.enc, k.h, k.sum, k.cur, 0, m+1, lanes)
	}
	t1 := time.Now()
	tr.add(names[op][0], parent, req, t0, t1)

	// Phase 2, serially: follow the sublists from the head's, using out
	// as the splitter → sublist index map until Phase 3 overwrites it.
	for j := 1; j <= m; j++ {
		out[k.r[j]] = int64(j)
	}
	var acc int64
	j, steps := 0, 0
	for {
		k.pfx[j] = acc
		steps++
		t := k.cur[j]
		if t == k.tail || steps > m+1 {
			break
		}
		nj := out[t]
		acc += k.sum[j]
		if scan {
			acc += k.savedVal[nj]
		}
		j = int(nj)
	}

	t2 := time.Now()
	if scan {
		kernel.ExpandAdd(out, next, val, k.h, k.pfx, 0, m+1, lanes)
	} else {
		kernel.ExpandEnc(out, k.enc, k.h, k.pfx, 0, m+1, lanes)
	}
	t3 := time.Now()
	tr.add(names[op][1], parent, req, t2, t3)
	if scan {
		for j := 1; j <= m; j++ {
			q := k.r[j]
			next[q], val[q] = k.savedNext[j], k.savedVal[j]
		}
	}
	return t1.Sub(t0) + t3.Sub(t2), steps == m+1 && p.matches(out, scan)
}

// seqRung times the reorder cache's sequential kernels, SeqRank and
// SeqScanAdd, over each list's layout in list order.
func (l *ladder) seqRung() {
	rung := l.tr.open("ladder.seq", 0, -1)
	defer l.tr.close(rung)
	perm := make([]int64, l.maxN)
	seq := make([]int64, l.maxN)
	var nsPerElem []float64
	keep := l.passes(1, func() {
		var t time.Duration
		for i, p := range l.probs {
			n := p.n()
			pm, sq, dst := perm[:n], seq[:n], l.dst[:n]
			for v, r := range p.rank {
				pm[r] = int64(v)
			}
			for r, v := range pm {
				sq[r] = p.list.Value[v]
			}
			t0 := time.Now()
			kernel.SeqRank(dst, pm)
			t1 := time.Now()
			l.verify(p, dst, false)
			t2 := time.Now()
			kernel.SeqScanAdd(dst, sq, pm)
			t3 := time.Now()
			l.verify(p, dst, true)
			t += t1.Sub(t0) + t3.Sub(t2)
			l.tr.add("kernel.SeqRank", rung, int64(i), t0, t1)
			l.tr.add("kernel.SeqScanAdd", rung, int64(i), t2, t3)
		}
		nsPerElem = append(nsPerElem, float64(t)/float64(2*l.totalN()))
	})
	l.set("kernel.seq_ns_per_elem", keep*medianF(nsPerElem), "ns")
}
