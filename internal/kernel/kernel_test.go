package kernel

import (
	"fmt"
	"testing"

	"listrank/internal/rng"
)

// sublists is a synthetic set of independent sublists over a shared
// vertex space, in the exact shape the engine hands the kernels: a
// next array with a self-loop at every sublist tail, a values array,
// and the head of each sublist. Vertex ids are scattered randomly so
// chases jump around memory like the real workload's.
type sublists struct {
	next, values []int64
	h            []int64
}

// makeSublists builds sublists with the given lengths, vertex ids
// drawn from a shuffled [0, sum(lengths)).
func makeSublists(lengths []int, seed uint64) *sublists {
	n := 0
	for _, ln := range lengths {
		if ln < 1 {
			panic("sublist length must be >= 1")
		}
		n += ln
	}
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	r := rng.New(seed)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	s := &sublists{
		next:   make([]int64, n),
		values: make([]int64, n),
		h:      make([]int64, 0, len(lengths)),
	}
	pos := 0
	for _, ln := range lengths {
		s.h = append(s.h, perm[pos])
		for i := 0; i < ln; i++ {
			v := perm[pos+i]
			if i == ln-1 {
				s.next[v] = v // tail self-loop
			} else {
				s.next[v] = perm[pos+i+1]
			}
			s.values[v] = int64(r.Intn(100)) - 17
		}
		pos += ln
	}
	return s
}

// enc builds the rank engine's encoded representation: link<<32 |
// addend, addend 1 everywhere except the self-looped tails.
func (s *sublists) enc() []uint64 {
	e := make([]uint64, len(s.next))
	for v, nx := range s.next {
		if nx == int64(v) {
			e[v] = uint64(v) << 32
		} else {
			e[v] = uint64(nx)<<32 | 1
		}
	}
	return e
}

// The record and stream kernels' three layouts.
const (
	layRank    = iota // narrow word, addend 1: RecordRank, StreamRank
	layScan           // narrow word, int32 addend: RecordScan, StreamScan
	layWide           // {link, value} pair under wideOp: RecordOp, StreamOp
	layWideAdd        // {link, value} pair, nil op (inline addition)
)

var layouts = []int{layRank, layScan, layWide, layWideAdd}

// wideOp and wideID are the wide kernels' probe operator and identity.
// The op is deliberately non-commutative and non-associative, so any
// deviation from the serial per-sublist fold order, or folding the
// sublist prefix on the wrong side, changes the result; the identity is
// not a neutral element, so a kernel that drops it shows too.
func wideOp(a, b int64) int64 { return 3*a + b }

const wideID = 7

// wideFold returns a wide layout's kernel operator and identity, and
// the fold the references apply.
func wideFold(lay int) (op func(a, b int64) int64, id int64, fold func(a, b int64) int64) {
	if lay == layWideAdd {
		return nil, 0, func(a, b int64) int64 { return a + b }
	}
	return wideOp, wideID, wideOp
}

// words builds a layout's words from the sublists: narrow link<<32 |
// uint32(addend), the addend 1 for a rank and the value for a scan;
// wide {link, value} pairs. Every tail is a self-loop that keeps its
// value.
func (s *sublists) words(lay int) []uint64 {
	if lay >= layWide {
		w := make([]uint64, 2*len(s.next))
		for v, nx := range s.next {
			w[2*v], w[2*v+1] = uint64(nx), uint64(s.values[v])
		}
		return w
	}
	e := make([]uint64, len(s.next))
	for v, nx := range s.next {
		a := uint64(1)
		if lay == layScan {
			a = uint64(uint32(s.values[v]))
		}
		e[v] = uint64(nx)<<32 | a
	}
	return e
}

// recorded is the state a record kernel must leave: the words (records
// for every vertex of the chased sublists, base words elsewhere) and
// the retired sums and tails.
type recorded struct {
	enc      []uint64
	sum, cur []int64
}

// newRecorded is the state before a record kernel runs: a copy of
// base and zeroed columns.
func newRecorded(s *sublists, base []uint64) recorded {
	return recorded{
		enc: append([]uint64(nil), base...),
		sum: make([]int64, len(s.h)),
		cur: make([]int64, len(s.h)),
	}
}

// refRecord is the safe reference for the record kernel of layout lay
// over sublists [lo, hi), starting from base.
func refRecord(s *sublists, base []uint64, lay, lo, hi int) recorded {
	r := newRecorded(s, base)
	_, id, fold := wideFold(lay)
	for j := lo; j < hi; j++ {
		c := s.h[j]
		var off, acc int64
		if lay >= layWide {
			acc = id
		}
		for {
			switch lay {
			case layRank:
				r.enc[c] = RecBit | uint64(j)<<32 | uint64(off)
				acc++
			case layScan:
				r.enc[c] = RecBit | uint64(j)<<32 | uint64(uint32(acc))
				acc += s.values[c]
			default:
				r.enc[2*c], r.enc[2*c+1] = RecBit|uint64(j), uint64(acc)
				acc = fold(acc, s.values[c])
			}
			off++
			if s.next[c] == c {
				break
			}
			c = s.next[c]
		}
		r.sum[j], r.cur[j] = acc, c
	}
	return r
}

// runRecord runs the record kernel under test on a copy of base.
func runRecord(s *sublists, base []uint64, lay, lo, hi, K int) recorded {
	r := newRecorded(s, base)
	switch lay {
	case layRank:
		RecordRank(r.enc, s.h, r.sum, r.cur, lo, hi, K)
	case layScan:
		RecordScan(r.enc, s.h, r.sum, r.cur, lo, hi, K)
	default:
		op, id, _ := wideFold(lay)
		RecordOp(r.enc, s.h, r.sum, r.cur, op, id, lo, hi, K)
	}
	return r
}

// diffRecorded reports the first difference between two record
// states, or "" when they agree everywhere (untouched slots included).
func diffRecorded(got, want recorded) string {
	for i := range want.enc {
		if got.enc[i] != want.enc[i] {
			return fmt.Sprintf("word %d = %#x, want %#x", i, got.enc[i], want.enc[i])
		}
	}
	for j := range want.sum {
		if got.sum[j] != want.sum[j] || got.cur[j] != want.cur[j] {
			return fmt.Sprintf("vp %d: (sum, tail) = (%d, %d), want (%d, %d)", j, got.sum[j], got.cur[j], want.sum[j], want.cur[j])
		}
	}
	return ""
}

// unstreamed is out before a stream runs: a marker per vertex, so a
// stream that reads out, or writes outside its window, shows.
func unstreamed(n int) []int64 {
	out := make([]int64, n)
	for v := range out {
		out[v] = ^int64(v)
	}
	return out
}

// refStream is the safe reference for the Phase 3 streams over
// vertices [vlo, vhi) after every sublist was recorded: each vertex
// gets its sublist's prefix plus its offset (rank) or its local
// exclusive prefix (scan), or its sublist's prefix folded with its
// local prefix (wide); the rest of out keeps its markers.
func refStream(s *sublists, pfx []int64, lay, vlo, vhi int) []int64 {
	out := unstreamed(len(s.next))
	_, id, fold := wideFold(lay)
	for j := range s.h {
		c := s.h[j]
		var off, acc int64
		if lay >= layWide {
			acc = id
		}
		for {
			if int(c) >= vlo && int(c) < vhi {
				switch lay {
				case layRank:
					out[c] = pfx[j] + off
				case layScan:
					out[c] = pfx[j] + acc
				default:
					out[c] = fold(pfx[j], acc)
				}
			}
			if lay >= layWide {
				acc = fold(acc, s.values[c])
			} else {
				acc += s.values[c]
			}
			off++
			if s.next[c] == c {
				break
			}
			c = s.next[c]
		}
	}
	return out
}

// runStream runs the stream kernel under test over full's recorded
// words.
func runStream(full recorded, pfx []int64, lay, vlo, vhi int) []int64 {
	n := len(full.enc)
	if lay >= layWide {
		n /= 2
	}
	out := unstreamed(n)
	switch lay {
	case layRank:
		StreamRank(out, full.enc, pfx, vlo, vhi)
	case layScan:
		StreamScan(out, full.enc, pfx, vlo, vhi)
	default:
		op, _, _ := wideFold(lay)
		StreamOp(out, full.enc, pfx, op, vlo, vhi)
	}
	return out
}

// Reference implementations: the plain safe serial walks.

func refSumAdd(s *sublists, lo, hi int) (sum, cur []int64) {
	sum = make([]int64, len(s.h))
	cur = make([]int64, len(s.h))
	for j := lo; j < hi; j++ {
		c := s.h[j]
		var acc int64
		for {
			acc += s.values[c]
			nx := s.next[c]
			if nx == c {
				break
			}
			c = nx
		}
		sum[j], cur[j] = acc, c
	}
	return sum, cur
}

func refExpandAdd(s *sublists, pfx []int64, lo, hi int) []int64 {
	out := make([]int64, len(s.next))
	for j := lo; j < hi; j++ {
		c := s.h[j]
		acc := pfx[j]
		for {
			out[c] = acc
			acc += s.values[c]
			nx := s.next[c]
			if nx == c {
				break
			}
			c = nx
		}
	}
	return out
}

// shapes is the set of odd sublist populations every kernel test
// sweeps: singletons only (refill every step), one long chain among
// singletons (one lane outlives all refills), uniform, random
// geometric-ish, and a single sublist (fewer sublists than lanes).
func shapes(r *rng.Rand) map[string][]int {
	random := make([]int, 40)
	for i := range random {
		random[i] = 1 + r.Intn(60)
	}
	long := make([]int, 21)
	for i := range long {
		long[i] = 1
	}
	long[10] = 500
	return map[string][]int{
		"singletons": {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		"one-long":   long,
		"uniform":    {7, 7, 7, 7, 7, 7, 7, 7},
		"random":     random,
		"single":     {97},
		"pair":       {1, 350},
	}
}

// laneWidths is every supported width plus one past the clamp.
var laneWidths = func() []int {
	ws := []int{MaxLanes + 50}
	for K := 1; K <= MaxLanes; K++ {
		ws = append(ws, K)
	}
	return ws
}()

func TestChaseKernelsMatchOracle(t *testing.T) {
	r := rng.New(42)
	for name, lengths := range shapes(r) {
		s := makeSublists(lengths, uint64(len(name)))
		e := s.enc()
		k := len(s.h)
		pfx := make([]int64, k)
		for j := range pfx {
			pfx[j] = int64(j * 1000)
		}
		chunks := [][2]int{{0, k}, {0, 0}, {k / 3, 2 * k / 3}, {k - 1, k}}
		for _, ch := range chunks {
			lo, hi := ch[0], ch[1]
			wantSum, wantCur := refSumAdd(s, lo, hi)
			wantOut := refExpandAdd(s, pfx, lo, hi)
			for _, K := range laneWidths {
				t.Run(fmt.Sprintf("%s/chunk=%d-%d/K=%d", name, lo, hi, K), func(t *testing.T) {
					sum := make([]int64, k)
					cur := make([]int64, k)
					SumAdd(s.next, s.values, s.h, sum, cur, lo, hi, K)
					for j := lo; j < hi; j++ {
						if sum[j] != wantSum[j] || cur[j] != wantCur[j] {
							t.Fatalf("SumAdd vp %d: got (%d,%d), want (%d,%d)", j, sum[j], cur[j], wantSum[j], wantCur[j])
						}
					}

					out := make([]int64, len(s.next))
					ExpandAdd(out, s.next, s.values, s.h, pfx, lo, hi, K)
					for v := range out {
						if out[v] != wantOut[v] {
							t.Fatalf("ExpandAdd vertex %d: got %d, want %d", v, out[v], wantOut[v])
						}
					}

					// Encoded twins: sum must be the sublist length and
					// the expansion must add 1 per vertex.
					SumEnc(e, s.h, sum, cur, lo, hi, K)
					for j := lo; j < hi; j++ {
						// recompute length from the reference walk
						var length int64 = 1
						for c := s.h[j]; s.next[c] != c; c = s.next[c] {
							length++
						}
						if sum[j] != length {
							t.Fatalf("SumEnc vp %d: got %d, want length %d", j, sum[j], length)
						}
						if cur[j] != wantCur[j] {
							t.Fatalf("SumEnc vp %d: tail %d, want %d", j, cur[j], wantCur[j])
						}
					}
					ExpandEnc(out, e, s.h, pfx, lo, hi, K)
					for j := lo; j < hi; j++ {
						want := pfx[j]
						for c := s.h[j]; ; c = s.next[c] {
							if out[c] != want {
								t.Fatalf("ExpandEnc vp %d vertex %d: got %d, want %d", j, c, out[c], want)
							}
							want++
							if s.next[c] == c {
								break
							}
						}
					}

					// Record-then-stream kernels, all three layouts: the
					// records must have the documented layout and touch
					// nothing outside the chunk's sublists; the streams
					// run over a vertex window derived from the chunk.
					vlo, vhi := lo*len(s.next)/k, hi*len(s.next)/k
					for _, lay := range layouts {
						base := s.words(lay)
						if d := diffRecorded(runRecord(s, base, lay, lo, hi, K), refRecord(s, base, lay, lo, hi)); d != "" {
							t.Fatalf("record layout %d: %s", lay, d)
						}
						full := refRecord(s, base, lay, 0, k)
						got, want := runStream(full, pfx, lay, vlo, vhi), refStream(s, pfx, lay, vlo, vhi)
						for v := range want {
							if got[v] != want[v] {
								t.Fatalf("stream layout %d [%d,%d) vertex %d: got %d, want %d", lay, vlo, vhi, v, got[v], want[v])
							}
						}
					}
				})
			}
		}
	}
}

// TestKernelPanicsOnMalformedList: the explicit chk guard must fire —
// not an out-of-range read — when a link points outside the list.
func TestKernelPanicsOnMalformedList(t *testing.T) {
	s := makeSublists([]int{5, 5}, 1)
	s.next[s.h[0]] = int64(len(s.next)) + 100 // corrupt a link
	sum := make([]int64, 2)
	cur := make([]int64, 2)
	for _, K := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("K=%d: no panic on out-of-range link", K)
				}
			}()
			SumAdd(s.next, s.values, s.h, sum, cur, 0, 2, K)
		}()
	}
	// Chunk bounds beyond the vp table must panic too.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on out-of-range chunk")
			}
		}()
		SumAdd(s.next, s.values, s.h, sum, cur, 0, 3, 4)
	}()

	// The record kernels' sentinel, in every layout: a lane that reaches
	// a vertex some lane already recorded must panic, not chase the
	// record. Three shapes: two sublists sharing a vertex, two sharing a
	// head, and a cycle with no self-loop to end it.
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", what)
			}
		}()
		f()
	}
	for name, bend := range map[string]func(s *sublists){
		"shared-vertex": func(s *sublists) { s.next[s.h[1]] = s.next[s.h[0]] },
		"shared-head":   func(s *sublists) { s.h[1] = s.h[0] },
		"cycle": func(s *sublists) {
			c := s.h[0]
			for s.next[c] != c {
				c = s.next[c]
			}
			s.next[c] = s.h[0]
		},
	} {
		for _, lay := range layouts {
			for _, K := range []int{1, 4} {
				bad := makeSublists([]int{5, 5}, 1)
				bend(bad)
				mustPanic(fmt.Sprintf("%s layout %d K=%d", name, lay, K), func() {
					runRecord(bad, bad.words(lay), lay, 0, 2, K)
				})
			}
		}
	}
	// A stream over a vertex no lane recorded must panic too, as must a
	// stream window past the arrays. The prefix table is wider than any
	// link, so only the sentinel can reject an unrecorded word.
	ok := makeSublists([]int{5, 5}, 1)
	pfx := make([]int64, len(ok.next)+1)
	for _, lay := range layouts {
		base := ok.words(lay)
		part := refRecord(ok, base, lay, 0, 1) // sublist 1 never chased
		mustPanic(fmt.Sprintf("unrecorded layout %d", lay), func() { runStream(part, pfx, lay, 0, 10) })
		full := refRecord(ok, base, lay, 0, 2)
		mustPanic(fmt.Sprintf("window layout %d", lay), func() { runStream(full, pfx, lay, 0, 11) })
	}
}

// TestKernelsAllocationFree: lane state is a stack array; a kernel
// call must never touch the heap.
func TestKernelsAllocationFree(t *testing.T) {
	s := makeSublists([]int{9, 1, 30, 2, 2, 17, 1, 1, 40}, 5)
	e := s.enc()
	k := len(s.h)
	sum := make([]int64, k)
	cur := make([]int64, k)
	out := make([]int64, len(s.next))
	pfx := make([]int64, k)
	cases := map[string]func(){
		"SumAdd":    func() { SumAdd(s.next, s.values, s.h, sum, cur, 0, k, 16) },
		"SumEnc":    func() { SumEnc(e, s.h, sum, cur, 0, k, 16) },
		"ExpandAdd": func() { ExpandAdd(out, s.next, s.values, s.h, pfx, 0, k, 16) },
		"ExpandEnc": func() { ExpandEnc(out, e, s.h, pfx, 0, k, 16) },
	}
	// The record kernels consume their words, so each run re-encodes a
	// working copy first (copy never allocates).
	rankWords, scanWords, wideWords := s.words(layRank), s.words(layScan), s.words(layWide)
	work := make([]uint64, len(wideWords))
	cases["RecordRank"] = func() { copy(work, rankWords); RecordRank(work[:len(rankWords)], s.h, sum, cur, 0, k, 16) }
	cases["RecordScan"] = func() { copy(work, scanWords); RecordScan(work[:len(scanWords)], s.h, sum, cur, 0, k, 16) }
	cases["RecordOp"] = func() { copy(work, wideWords); RecordOp(work, s.h, sum, cur, wideOp, wideID, 0, k, 16) }
	cases["RecordOp/add"] = func() { copy(work, wideWords); RecordOp(work, s.h, sum, cur, nil, 0, 0, k, 16) }
	rankRec := refRecord(s, rankWords, layRank, 0, k).enc
	scanRec := refRecord(s, scanWords, layScan, 0, k).enc
	wideRec := refRecord(s, wideWords, layWide, 0, k).enc
	cases["StreamRank"] = func() { StreamRank(out, rankRec, pfx, 0, len(out)) }
	cases["StreamScan"] = func() { StreamScan(out, scanRec, pfx, 0, len(out)) }
	cases["StreamOp"] = func() { StreamOp(out, wideRec, pfx, wideOp, 0, len(out)) }
	cases["StreamOp/add"] = func() { StreamOp(out, wideRec, pfx, nil, 0, len(out)) }
	for name, fn := range cases {
		if got := testing.AllocsPerRun(20, fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
}

func TestWidthResolution(t *testing.T) {
	if w := Width(0, 1<<10); w != 8 {
		t.Errorf("Width(0, small) = %d, want 8", w)
	}
	if w := Width(0, 1<<20); w != 16 {
		t.Errorf("Width(0, mid) = %d, want 16", w)
	}
	if w := Width(0, 1<<24); w != MaxLanes {
		t.Errorf("Width(0, large) = %d, want %d", w, MaxLanes)
	}
	if w := Width(-3, 1<<20); w != 1 {
		t.Errorf("Width(-3) = %d, want 1", w)
	}
	if w := Width(1000, 1<<20); w != MaxLanes {
		t.Errorf("Width(1000) = %d, want %d", w, MaxLanes)
	}
}
