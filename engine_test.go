package listrank

import (
	"fmt"
	"sync"
	"testing"
)

// TestEngineReuseAcrossSizesAndAlgorithms drives one engine through
// varying list sizes, every algorithm, and both the default lane width
// and the single-cursor walk; each result must be byte-identical to
// the fresh-allocation API.
func TestEngineReuseAcrossSizesAndAlgorithms(t *testing.T) {
	e := NewEngine()
	sizes := []int{2000, 100, 30000, 5000, 1 << 16, 999}
	algs := []Algorithm{Sublist, Serial, Wyllie, MillerReif, AndersonMiller, RulingSet}
	for _, n := range sizes {
		l := NewRandomList(n, uint64(n))
		for _, a := range algs {
			for _, lw := range []int{1, 0} {
				opt := Options{Algorithm: a, Seed: uint64(n) * 3, LaneWidth: lw, Procs: 2}
				wantRank := RankWith(l, opt)
				wantScan := ScanWith(l, opt)
				dst := make([]int64, n)
				e.RankInto(dst, l, opt)
				for i := range dst {
					if dst[i] != wantRank[i] {
						t.Fatalf("n=%d alg=%v lanes=%d: RankInto[%d] = %d, want %d", n, a, lw, i, dst[i], wantRank[i])
					}
				}
				e.ScanInto(dst, l, opt)
				for i := range dst {
					if dst[i] != wantScan[i] {
						t.Fatalf("n=%d alg=%v lanes=%d: ScanInto[%d] = %d, want %d", n, a, lw, i, dst[i], wantScan[i])
					}
				}
			}
		}
	}
}

// TestEngineScanOpIntoNonCommutative reuses one engine for a
// non-commutative operator (modular affine-map composition) across
// sizes, against both ScanOpWith and the serial algorithm.
func TestEngineScanOpIntoNonCommutative(t *testing.T) {
	packAffine := func(a, b int64) int64 { return a<<32 | (b & 0xffffffff) }
	affine := func(f, g int64) int64 {
		fa, fb := f>>32, int64(int32(f))
		ga, gb := g>>32, int64(int32(g))
		return ((ga * fa) % 9973 << 32) | (((ga*fb + gb) % 9973) & 0xffffffff)
	}
	id := packAffine(1, 0)
	e := NewEngine()
	for _, n := range []int{500, 20000, 3000} {
		l := NewRandomList(n, uint64(n)+7)
		for i := range l.Value {
			l.Value[i] = packAffine(int64(i%5)+1, int64(i%37))
		}
		want := ScanOpWith(l, affine, id, Options{Algorithm: Serial})
		for _, a := range []Algorithm{Sublist, Serial, Wyllie} {
			dst := make([]int64, n)
			e.ScanOpInto(dst, l, affine, id, Options{Algorithm: a, Seed: 5, Procs: 3})
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("n=%d alg=%v: ScanOpInto[%d] = %d, want %d", n, a, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestPooledIntoFunctionsConcurrent hammers the package-level *Into
// entry points from many goroutines: the engine pool must hand each
// call an exclusive arena and every result must stay correct.
func TestPooledIntoFunctionsConcurrent(t *testing.T) {
	const workers = 16
	const rounds = 8
	lists := make([]*List, workers)
	wantR := make([][]int64, workers)
	wantS := make([][]int64, workers)
	for i := range lists {
		lists[i] = NewRandomList(4000+257*i, uint64(i)+100)
		wantR[i] = RankWith(lists[i], Options{Algorithm: Serial})
		wantS[i] = ScanWith(lists[i], Options{Algorithm: Serial})
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := lists[w]
			dst := make([]int64, l.Len())
			for r := 0; r < rounds; r++ {
				RankInto(dst, l, Options{Seed: uint64(r)})
				for i := range dst {
					if dst[i] != wantR[w][i] {
						errs <- "concurrent RankInto mismatch"
						return
					}
				}
				ScanInto(dst, l, Options{Seed: uint64(r), LaneWidth: 1})
				for i := range dst {
					if dst[i] != wantS[w][i] {
						errs <- "concurrent ScanInto mismatch"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestEngineMatchesFreshEngine: a heavily reused engine and a brand
// new one must agree bit for bit for identical options (the arena must
// be invisible to results).
func TestEngineMatchesFreshEngine(t *testing.T) {
	warm := NewEngine()
	// Dirty the warm engine with a spread of unrelated workloads.
	for _, n := range []int{1 << 15, 300, 70000} {
		l := NewRandomList(n, uint64(n))
		dst := make([]int64, n)
		warm.RankInto(dst, l, Options{Seed: 1})
		warm.ScanInto(dst, l, Options{Seed: 2, LaneWidth: 1})
	}
	l := NewRandomList(50000, 77)
	for _, opt := range []Options{
		{Seed: 9},
		{Seed: 9, Procs: 4},
		{Seed: 9, LaneWidth: 1},
		{Seed: 9, M: 9000},
	} {
		a := make([]int64, l.Len())
		b := make([]int64, l.Len())
		warm.RankInto(a, l, opt)
		NewEngine().RankInto(b, l, opt)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("opt %+v: warm[%d] = %d, fresh = %d", opt, i, a[i], b[i])
			}
		}
	}
}

// TestIntoLengthMismatchPanics: the *Into entry points must reject
// wrongly sized destination buffers loudly.
func TestIntoLengthMismatchPanics(t *testing.T) {
	l := NewRandomList(100, 1)
	short := make([]int64, 99)
	for name, f := range map[string]func(){
		"RankInto":   func() { RankInto(short, l, Options{}) },
		"ScanInto":   func() { ScanInto(short, l, Options{}) },
		"ScanOpInto": func() { ScanOpInto(short, l, func(a, b int64) int64 { return a + b }, 0, Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on short dst", name)
				}
			}()
			f()
		}()
	}
}

// sharedProblems is the shared-list fixture: one list with int32
// values, and a second that shares its Next array but carries one value
// outside int32, plus the serial oracle for each call the shared-list
// tests make on them.
type sharedProblems struct {
	l, wl      *List
	next, vals []int64 // pristine copies of the shared arrays
	wvals      []int64
	want       [4][]int64 // rank, scan, max-scan of l; scan of wl
}

func sharedMax(a, b int64) int64 { return max(a, b) }

func newSharedProblems(n int) *sharedProblems {
	l := NewRandomList(n, 71)
	for i := range l.Value {
		l.Value[i] = int64(i%201) - 100
	}
	wl := &List{Next: l.Next, Value: append([]int64(nil), l.Value...), Head: l.Head}
	wl.Value[7] = 1 << 40
	serial := Options{Algorithm: Serial}
	return &sharedProblems{
		l: l, wl: wl,
		next:  append([]int64(nil), l.Next...),
		vals:  append([]int64(nil), l.Value...),
		wvals: append([]int64(nil), wl.Value...),
		want: [4][]int64{
			RankWith(l, serial),
			ScanWith(l, serial),
			ScanOpWith(l, sharedMax, -1<<62, serial),
			ScanWith(wl, serial),
		},
	}
}

// checkUntouched asserts the shared arrays are bit-identical to their
// pristine copies.
func (sp *sharedProblems) checkUntouched(t *testing.T) {
	t.Helper()
	for i := range sp.next {
		if sp.l.Next[i] != sp.next[i] || sp.l.Value[i] != sp.vals[i] || sp.wl.Value[i] != sp.wvals[i] {
			t.Fatalf("shared list written at vertex %d", i)
		}
	}
}

// TestSharedListConcurrent: the engines only read the list, so four
// goroutines may run a rank, an int32 scan, a generic-operator scan
// and a wide-value scan on one shared list at the same time. Every
// answer must equal the serial oracle and the list must be
// bit-identical afterwards; under -race any engine write to the list
// is a reported race.
func TestSharedListConcurrent(t *testing.T) {
	sp := newSharedProblems(1 << 14)
	calls := [4]func(dst []int64, opt Options){
		func(dst []int64, opt Options) { RankInto(dst, sp.l, opt) },
		func(dst []int64, opt Options) { ScanInto(dst, sp.l, opt) },
		func(dst []int64, opt Options) { ScanOpInto(dst, sp.l, sharedMax, -1<<62, opt) },
		func(dst []int64, opt Options) { ScanInto(dst, sp.wl, opt) },
	}
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan string, len(calls))
	for g := range calls {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]int64, sp.l.Len())
			for r := 0; r < rounds; r++ {
				c := (g + r) % len(calls) // every round runs all four at once
				calls[c](dst, Options{Seed: uint64(r), Procs: 1 + r%2})
				for i, w := range sp.want[c] {
					if dst[i] != w {
						errs <- fmt.Sprintf("goroutine %d call %d: dst[%d] = %d, want %d", g, c, i, dst[i], w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	sp.checkUntouched(t)
}
