package graph

import (
	"fmt"
	"testing"

	"listrank"
)

// Connected components across algorithms and graph families — the
// experiment the prior implementation studies the paper cites ran on
// parallel hardware, here on the goroutine track.
func BenchmarkComponents(b *testing.B) {
	families := []struct {
		name string
		g    *Graph
	}{
		{"grid512", Grid(512, 512)},
		{"gnm-1M", RandomGNM(1<<19, 1<<20, 42)},
		{"path-1M", Path(1 << 20)},
	}
	algos := []CCAlgorithm{CCSerialDFS, CCUnionFind, CCHookShortcut}
	for _, fam := range families {
		for _, a := range algos {
			b.Run(fmt.Sprintf("%s/%s", fam.name, a), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cc := ConnectedComponents(fam.g, CCOptions{Algorithm: a})
					if cc.Count == 0 && fam.g.Len() > 0 {
						b.Fatal("no components")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fam.g.NumEdges()), "ns/edge")
			})
		}
	}
}

func BenchmarkSpanningForest(b *testing.B) {
	g := RandomGNM(1<<18, 1<<19, 7)
	b.Run("union-find", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(SpanningForest(g)) == 0 {
				b.Fatal("empty forest")
			}
		}
	})
}

// Biconnectivity: the parallel Euler-tour reduction against the
// serial lowpoint DFS. The path graph is the depth adversary (a DFS
// must walk it; the Euler-tour method ranks it in parallel).
func BenchmarkBiconnectivity(b *testing.B) {
	families := []struct {
		name string
		g    *Graph
	}{
		{"gnm-sparse", RandomGNM(1<<17, 1<<18, 3)},
		{"grid256", Grid(256, 256)},
		{"path-256k", Path(1 << 18)},
	}
	for _, fam := range families {
		for _, a := range []BiconnAlgorithm{BiconnSerialDFS, BiconnTarjanVishkin} {
			b.Run(fmt.Sprintf("%s/%s", fam.name, a), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := BiconnectedComponents(fam.g, BiconnOptions{Algorithm: a})
					if err != nil {
						b.Fatal(err)
					}
					if out.NumBlocks == 0 {
						b.Fatal("no blocks")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fam.g.NumEdges()), "ns/edge")
			})
		}
	}
}

// BenchmarkGraphEngineReuse is the arena architecture's benchmark
// contract at the graph layer: a warm Engine must label a stream of
// graphs with zero steady-state allocations at procs=1 (CI's
// bench-smoke leg runs this; the allocs/op column is the point).
func BenchmarkGraphEngineReuse(b *testing.B) {
	g := RandomGNM(1<<17, 1<<18, 21)
	want := componentsDFS(g)
	en := NewEngine()
	// Engine-owned pool for the procs > 1 legs: 0 allocs/op independent
	// of the host's core count.
	pool := listrank.NewWorkerPool(4)
	b.Cleanup(pool.Close)
	en.SetPool(pool)
	var c Components
	for _, a := range []CCAlgorithm{CCHookShortcut, CCUnionFind} {
		for _, procs := range []int{1, 4} {
			if (a == CCUnionFind) && procs > 1 {
				continue // serial algorithm; one leg is enough
			}
			b.Run(fmt.Sprintf("%s-p%d", a, procs), func(b *testing.B) {
				opt := CCOptions{Algorithm: a, Procs: procs}
				en.ComponentsInto(&c, g, opt) // warm the arena
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					en.ComponentsInto(&c, g, opt)
					if c.Count != want.Count {
						b.Fatal("wrong count")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
			})
		}
	}
}
