package tree

import (
	"fmt"
	"testing"

	"listrank"
	"listrank/internal/rng"
)

// BenchmarkTree exercises the downstream applications: the Euler-tour
// statistics, constant-time LCA construction, rooting from an edge
// list, and expression evaluation by rake contraction.
func BenchmarkTree(b *testing.B) {
	n := 1 << 18
	parent := make([]int, n)
	r := rng.New(15)
	parent[0] = -1
	for v := 1; v < n; v++ {
		span := v
		if span > 32 && r.Intn(4) != 0 {
			span = 32 // bias deep
		}
		parent[v] = v - 1 - r.Intn(span)
	}
	b.Run("depths", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			t, err := New(parent, listrank.Options{Procs: 4})
			if err != nil {
				b.Fatal(err)
			}
			_ = t.Depths()
		}
	})
	b.Run("lca-build", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			t, err := New(parent, listrank.Options{Procs: 4})
			if err != nil {
				b.Fatal(err)
			}
			_ = t.LCA()
		}
	})
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{parent[v], v})
	}
	b.Run("root-from-edges", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			if _, err := RootAt(n, edges, 0, listrank.Options{Procs: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// GeneralExpr across the shapes that stress each half: chains are all
// chain fold, the caterpillar (no unary node) is all rake, random
// general trees mix both. The serial postorder walk is the baseline;
// new times construction alone and new-eval one construction plus one
// Eval.
func BenchmarkGeneralExpr(b *testing.B) {
	shapes := []struct {
		name string
		in   *generalInputs
	}{
		{"random-256k", randomGeneralInputs(1<<18, 3)},
		{"chain-256k", chainInputs(1 << 18)},
		{"caterpillar-256k", caterpillarInputs(1 << 17)},
	}
	for _, s := range shapes {
		e := s.in.build(b, listrank.Options{})
		want := e.EvalSerial()
		bytes := int64(8 * e.Len())
		b.Run(s.name+"/serial", func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				if e.EvalSerial() != want {
					b.Fatal("wrong answer")
				}
			}
		})
		for _, p := range []int{1, 2} {
			opt := listrank.Options{Procs: p}
			e.opt = opt
			legs := []struct {
				name string
				run  func() int64
			}{
				{"new", func() int64 { s.in.build(b, opt); return want }},
				{"eval", func() int64 { return e.Eval(nil) }},
				{"eval-all", func() int64 { return e.EvalAll(nil)[e.Root()] }},
				{"new-eval", func() int64 { return s.in.build(b, opt).Eval(nil) }},
			}
			for _, leg := range legs {
				b.Run(fmt.Sprintf("%s/%s-p%d", s.name, leg.name, p), func(b *testing.B) {
					b.SetBytes(bytes)
					for i := 0; i < b.N; i++ {
						if leg.run() != want {
							b.Fatal("wrong answer")
						}
					}
				})
			}
		}
	}
}

// BenchmarkTreeEngineReuse is the arena architecture's benchmark
// contract at the tree layer: a warm Engine must evaluate a stream of
// expression trees with zero steady-state allocations at procs=1 (CI's
// bench-smoke leg runs this; the allocs/op column is the point).
func BenchmarkTreeEngineReuse(b *testing.B) {
	nLeaves := 1 << 16
	left, right, ops, vals := randomExpr(nLeaves, 9, 0.5)
	for _, procs := range []int{1, 4} {
		e, err := NewExpr(left, right, ops, vals, listrank.Options{Procs: procs})
		if err != nil {
			b.Fatal(err)
		}
		want := e.EvalSerial()
		en := NewEngine()
		if procs > 1 {
			// Engine-owned pool: 0 allocs/op independent of host cores.
			pool := listrank.NewWorkerPool(procs)
			b.Cleanup(pool.Close)
			en.SetPool(pool)
		}
		dst := make([]int64, e.Len())
		b.Run(fmt.Sprintf("eval-p%d", procs), func(b *testing.B) {
			en.Eval(e, nil) // warm the arena
			b.ReportAllocs()
			b.ResetTimer()
			b.SetBytes(int64(8 * e.Len()))
			for i := 0; i < b.N; i++ {
				if en.Eval(e, nil) != want {
					b.Fatal("wrong answer")
				}
			}
		})
		b.Run(fmt.Sprintf("eval-all-into-p%d", procs), func(b *testing.B) {
			en.EvalAllInto(dst, e, nil) // warm the arena
			b.ReportAllocs()
			b.ResetTimer()
			b.SetBytes(int64(8 * e.Len()))
			for i := 0; i < b.N; i++ {
				en.EvalAllInto(dst, e, nil)
				if dst[e.Root()] != want {
					b.Fatal("wrong answer")
				}
			}
		})
	}
}
