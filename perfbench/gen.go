package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"listrank"
)

// problem is one generated list with its serial-walk answers, which
// every engine call and served response is compared against. Answers
// are stored as int32 (ranks are below 2^24 and scans of values in
// [-5, 5] stay within ±2^27), halving the oracle's memory.
type problem struct {
	list       listrank.List
	rank, scan []int32
}

func (p *problem) n() int { return len(p.list.Next) }

// newRand returns the generator for one purpose (stream) of a seed, so
// each input is a function of the seed alone.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Generator streams.
const (
	streamSizes = iota + 1
	streamLists
	streamSequence
	streamSplitters
)

// fill makes p a random-layout list of n vertices with values in
// [-5, 5], reusing p's arrays; perm is scratch of length at least n.
func (p *problem) fill(n int, r *rand.Rand, perm []int64) {
	p.list.Next = growInt64(p.list.Next, n)
	p.list.Value = growInt64(p.list.Value, n)
	perm = perm[:n]
	for i := range perm {
		perm[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := p.list.Next
	for i := 0; i < n-1; i++ {
		next[perm[i]] = perm[i+1]
	}
	next[perm[n-1]] = perm[n-1]
	p.list.Head = perm[0]
	for i := range p.list.Value {
		p.list.Value[i] = int64(r.IntN(11)) - 5
	}
}

// solve computes the serial-walk answers: one walk from the head
// writes every vertex's rank and exclusive scan. It is written here
// rather than borrowed from internal/serial so that the oracle shares no
// code with the layers it checks.
func (p *problem) solve() error {
	n := p.n()
	p.rank = growInt32(p.rank, n)
	p.scan = growInt32(p.scan, n)
	next, val := p.list.Next, p.list.Value
	v := p.list.Head
	var r int32
	var s int64
	for {
		p.rank[v] = r
		p.scan[v] = int32(s)
		r++
		s += val[v]
		nx := next[v]
		if nx == v {
			break
		}
		v = nx
	}
	if int(r) != n {
		return fmt.Errorf("generated list walks %d of %d vertices", r, n)
	}
	return nil
}

// matches reports whether got equals the rank (scan=false) or scan
// answers.
func (p *problem) matches(got []int64, scan bool) bool {
	want := p.rank
	if scan {
		want = p.scan
	}
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if got[i] != int64(w) {
			return false
		}
	}
	return true
}

// zipfSizes returns count list sizes over the geometric buckets
// min<<k, k = 0..log2(max/min), with bucket k weighted (1+k)^-s — the
// Zipf-over-buckets mix of cmd/listrankc — capped at max. The draw is
// stratified so that a workload's total size and its reorder-cache
// footprint do not swing from seed to seed: each bucket holds its
// expected share of the lists (largest remainder), its lists sit in
// equal slices of the bucket, and the seed moves each within the
// middle quarter of its slice and shuffles their order.
func zipfSizes(r *rand.Rand, count, minN, maxN int, s float64) []int {
	buckets := 0
	for b := minN; b < maxN; b *= 2 {
		buckets++
	}
	w := make([]float64, buckets+1)
	var sum float64
	for k := range w {
		w[k] = math.Pow(float64(1+k), -s)
		sum += w[k]
	}
	counts := make([]int, len(w))
	frac := make([]float64, len(w))
	left := count
	for k := range w {
		exact := float64(count) * w[k] / sum
		counts[k] = int(exact)
		frac[k] = exact - float64(counts[k])
		left -= counts[k]
	}
	for ; left > 0; left-- {
		best := 0
		for k := range frac {
			if frac[k] > frac[best] {
				best = k
			}
		}
		counts[best]++
		frac[best] = -1
	}
	sizes := make([]int, 0, count)
	for k, c := range counts {
		b := minN << k
		slice := b / max(c, 1)
		for i := range c {
			n := b + i*slice + slice*3/8 + r.IntN(slice/4+1)
			sizes = append(sizes, min(n, maxN))
		}
	}
	r.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// reqSpec is one entry of a serve workload's request sequence.
type reqSpec struct {
	list   int32
	scan   bool
	tagged bool
}

// buildSequence returns rounds shuffled rounds of requests. Each round
// asks every list for 7 ranks and 3 scans (the 30% scan mix); with
// tagged, every list's round is doubled and one copy is sent as tagged
// frames, so exactly half the requests carry a list_id. Whole rounds
// keep the mix exact over any window of a few rounds.
func buildSequence(r *rand.Rand, lists, rounds int, tagged bool) []reqSpec {
	var round []reqSpec
	copies := 1
	if tagged {
		copies = 2
	}
	for i := range lists {
		for c := range copies {
			for k := range 10 {
				round = append(round, reqSpec{list: int32(i), scan: k >= 7, tagged: c == 1})
			}
		}
	}
	seq := make([]reqSpec, 0, rounds*len(round))
	for range rounds {
		r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		seq = append(seq, round...)
	}
	return seq
}

func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
