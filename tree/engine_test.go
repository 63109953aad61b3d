package tree

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"listrank"
	"listrank/internal/list"
)

// TestTreeEngineReuseAcrossSizes drives one engine through expression
// trees whose sizes grow and shrink; every evaluation must match the
// serial reference, and the shared buffers must never leak state from
// one problem into the next.
func TestTreeEngineReuseAcrossSizes(t *testing.T) {
	en := NewEngine()
	sizes := []int{2000, 50, 1 << 14, 500, 1 << 15, 333}
	for _, nLeaves := range sizes {
		for _, procs := range []int{1, 3} {
			left, right, ops, vals := randomExpr(nLeaves, uint64(nLeaves)+7, 0.4)
			e, err := NewExpr(left, right, ops, vals, listrank.Options{Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			want := e.EvalSerial()
			var st ContractStats
			if got := en.Eval(e, &st); got != want {
				t.Fatalf("nLeaves=%d procs=%d: Eval = %d, want %d", nLeaves, procs, got, want)
			}
			if st.Rakes != nLeaves-2 {
				t.Fatalf("nLeaves=%d procs=%d: %d rakes, want %d", nLeaves, procs, st.Rakes, nLeaves-2)
			}
			wantAll := refSubtreeValues(left, right, ops, vals, e.Root())
			dst := make([]int64, e.Len())
			en.EvalAllInto(dst, e, nil)
			for v := range dst {
				if dst[v] != wantAll[v] {
					t.Fatalf("nLeaves=%d procs=%d: EvalAllInto[%d] = %d, want %d",
						nLeaves, procs, v, dst[v], wantAll[v])
				}
			}
		}
	}
}

// TestRootAtIntoMatchesRootAt: the engine variant must agree with the
// allocating API across sizes (shrinking as well as growing) and both
// must reject malformed input identically.
func TestRootAtIntoMatchesRootAt(t *testing.T) {
	en := NewEngine()
	for _, n := range []int{5000, 40, 20000, 1, 777} {
		edges := make([][2]int, 0, n-1)
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{(v - 1) / 2, v})
		}
		root := n / 3
		want, err := RootAt(n, edges, root, listrank.Options{Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, n)
		if err := en.RootAtInto(got, n, edges, root, listrank.Options{Procs: 2}); err != nil {
			t.Fatal(err)
		}
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("n=%d: RootAtInto[%d] = %d, want %d", n, v, got[v], want[v])
			}
		}
	}
	// A cycle must be rejected, and the engine must stay usable after.
	bad := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	dst := make([]int, 4)
	if err := en.RootAtInto(dst, 4, bad, 0, listrank.Options{}); err == nil {
		t.Fatal("RootAtInto accepted a cyclic edge set")
	}
	good := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	if err := en.RootAtInto(dst, 4, good, 0, listrank.Options{}); err != nil {
		t.Fatalf("engine unusable after rejected input: %v", err)
	}
	if dst[0] != -1 || dst[1] != 0 || dst[2] != 1 || dst[3] != 2 {
		t.Fatalf("path rooting wrong: %v", dst)
	}
}

// TestTreeEngineConcurrent runs independent engines in parallel; each
// must produce correct results with no interference (the race detector
// leg of CI exercises the same path with -race).
func TestTreeEngineConcurrent(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			en := NewEngine()
			left, right, ops, vals := randomExpr(3000+100*w, uint64(w)+11, 0.5)
			e, err := NewExpr(left, right, ops, vals, listrank.Options{Procs: 2})
			if err != nil {
				errs <- err
				return
			}
			want := e.EvalSerial()
			dst := make([]int64, e.Len())
			for r := 0; r < 6; r++ {
				if got := en.Eval(e, nil); got != want {
					t.Errorf("worker %d round %d: Eval = %d, want %d", w, r, got, want)
					return
				}
				en.EvalAllInto(dst, e, nil)
				if dst[e.Root()] != want {
					t.Errorf("worker %d round %d: EvalAllInto root = %d, want %d", w, r, dst[e.Root()], want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTreeZeroAllocSteadyState is the application-layer contract of
// the arena architecture: with a warm engine and one worker, repeated
// evaluation, subtree evaluation and rooting perform zero heap
// allocations, and so does GeneralExpr.Eval on its warm pooled engine.
func TestTreeZeroAllocSteadyState(t *testing.T) {
	nLeaves := 1 << 13
	left, right, ops, vals := randomExpr(nLeaves, 29, 0.5)
	for _, procs := range []int{1, 4} {
		e, err := NewExpr(left, right, ops, vals, listrank.Options{Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		n := e.Len()
		edges := make([][2]int, 0, n-1)
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{(v - 1) / 2, v})
		}
		parent := make([]int, n)
		dst := make([]int64, n)
		en := NewEngine()
		if procs > 1 {
			// An engine-owned pool sized to the job keeps the Procs > 1
			// guarantee independent of the host machine's core count.
			pool := listrank.NewWorkerPool(procs)
			defer pool.Close()
			en.SetPool(pool)
		}
		var st ContractStats
		type allocCase struct {
			name string
			run  func()
		}
		cases := []allocCase{
			{"eval", func() { en.Eval(e, &st) }},
			{"eval-all-into", func() { en.EvalAllInto(dst, e, &st) }},
			{"root-at-into", func() {
				if err := en.RootAtInto(parent, n, edges, 0, listrank.Options{Procs: procs}); err != nil {
					t.Fatal(err)
				}
			}},
		}
		if procs == 1 {
			g := randomGeneralExpr(t, 3*nLeaves, 29, listrank.Options{Procs: 1})
			var gst RakeCompressStats
			cases = append(cases, allocCase{"general-eval", func() { g.Eval(&gst) }})
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s-p%d", tc.name, procs), func(t *testing.T) {
				tc.run() // warm the arena for this configuration
				if allocs := testing.AllocsPerRun(3, tc.run); allocs != 0 {
					t.Errorf("%s: %v allocs/op with a warm engine, want 0", tc.name, allocs)
				}
			})
		}
		// A warm engine whose rank refused a circuit — the tree's first
		// n−4 edges and a 3-cycle through its last three vertices —
		// roots the next valid tree correctly without allocating.
		t.Run(fmt.Sprintf("root-at-into-after-refusal-p%d", procs), func(t *testing.T) {
			bad := append(append([][2]int(nil), edges[:n-4]...), [2]int{n - 3, n - 2}, [2]int{n - 2, n - 1}, [2]int{n - 1, n - 3})
			if err := en.RootAtInto(parent, n, bad, 0, listrank.Options{Procs: procs}); !errors.Is(err, list.ErrNotList) {
				t.Fatalf("cyclic edges: err = %v, want a refusal wrapping list.ErrNotList", err)
			}
			var err error
			if allocs := mallocsOf(func() { err = en.RootAtInto(parent, n, edges, 0, listrank.Options{Procs: procs}) }); allocs != 0 {
				t.Errorf("%d allocs rooting after a refusal, want 0", allocs)
			}
			if err != nil {
				t.Fatal(err)
			}
			for v := 1; v < n; v++ {
				if parent[v] != (v-1)/2 {
					t.Fatalf("parent[%d] = %d after a refusal, want %d", v, parent[v], (v-1)/2)
				}
			}
		})
	}
}

// mallocsOf counts the heap allocations of one call of f, measured as
// testing.AllocsPerRun does but without its warm-up call. It warms the
// runtime instead: one blocking channel round-trip refills this P's
// sudog cache, which f's first parked wait (a pool worker's Cond in
// par) would otherwise refill at f's expense.
func mallocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() { pong <- <-ping }()
	ping <- struct{}{}
	<-pong
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestIntoLengthMismatchPanicsTree: the *Into entry points must reject
// wrongly sized destination buffers loudly, mirroring the listrank
// surface.
func TestIntoLengthMismatchPanicsTree(t *testing.T) {
	left, right, ops, vals := randomExpr(16, 3, 0.5)
	e, err := NewExpr(left, right, ops, vals, listrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine()
	short64 := make([]int64, e.Len()-1)
	shortInt := make([]int, 3)
	for name, f := range map[string]func(){
		"EvalAllInto": func() { en.EvalAllInto(short64, e, nil) },
		"RootAtInto": func() {
			_ = en.RootAtInto(shortInt, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, 0, listrank.Options{})
		},
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

// TestZeroValueEngineUsable: the zero value of Engine must work for
// every method, including the ones that reach the embedded listrank
// engine (lazily created).
func TestZeroValueEngineUsable(t *testing.T) {
	var en Engine
	left, right, ops, vals := randomExpr(64, 5, 0.5)
	e, err := NewExpr(left, right, ops, vals, listrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := en.Eval(e, nil), e.EvalSerial(); got != want {
		t.Fatalf("Eval = %d, want %d", got, want)
	}
	parent := make([]int, 4)
	if err := en.RootAtInto(parent, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, 0, listrank.Options{}); err != nil {
		t.Fatal(err)
	}
	tr, err := New(parent, listrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := en.LCA(tr).Query(3, 1); got != 1 {
		t.Fatalf("LCA(3,1) = %d, want 1", got)
	}
}
