package listrank

import (
	"fmt"
	"testing"
)

// BenchmarkSegmented records the segmented engine's economics at
// 2^20 vertices — the regime EXPERIMENTS.md's crossover table is
// built from. Segmentation's cost is the boundary list: a list with
// segment-local structure (an ordered chain, here "local") crosses
// each cut once and reduces to S boundary nodes, while a random
// permutation ("shattered") leaves its segment on almost every link
// and degenerates to a boundary list of ~n nodes — the documented
// worst case, priced here rather than hidden. The server legs run
// the same comparison through a Server, where the request also pays
// admission and its ticket and is served by its shard; the
// out-of-core leg ranks from spill files under a resident budget of a
// quarter of the data, pricing the three streaming sweeps.
// cmd/benchjson turns this into BENCH_segmented.json in CI.
func BenchmarkSegmented(b *testing.B) {
	const n = 1 << 20
	shapes := []struct {
		name string
		l    *List
	}{
		{"local", NewOrderedList(n)},
		{"shattered", NewRandomList(n, 29)},
	}
	dst := make([]int64, n)

	for _, sh := range shapes {
		b.Run("incore/"+sh.name+"/monolithic", func(b *testing.B) {
			b.SetBytes(8 * int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RankInto(dst, sh.l, Options{})
			}
		})
		for _, S := range []int{4, 64} {
			b.Run(fmt.Sprintf("incore/%s/segmented/S=%d", sh.name, S), func(b *testing.B) {
				opt := SegmentedOptions{Segments: S, Seed: 7}
				SegmentedRankInto(dst, sh.l, opt) // warm the scratch pool
				b.SetBytes(8 * int64(n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					SegmentedRankInto(dst, sh.l, opt)
				}
			})
		}
	}

	local := shapes[0].l
	b.Run("server/monolithic", func(b *testing.B) {
		s := NewServer(ServerOptions{Procs: 4, WarmSizes: []int{n}})
		defer s.Close()
		req := Request{Op: OpRank, List: local, Dst: dst}
		if _, err := s.Submit(req).Wait(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(8 * int64(n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Submit(req).Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("server/segmented/S=16", func(b *testing.B) {
		s := NewServer(ServerOptions{Procs: 4, BinBounds: []int{1 << 17}, WarmSizes: []int{1 << 16}})
		defer s.Close()
		req := Request{Op: OpRank, List: local, Dst: dst, Segments: 16}
		if _, err := s.Submit(req).Wait(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(8 * int64(n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Submit(req).Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("outofcore/budget=n:4", func(b *testing.B) {
		o, err := NewOutOfCoreList(n, OutOfCoreOptions{Dir: b.TempDir(), Budget: 8 * n / 4})
		if err != nil {
			b.Fatal(err)
		}
		defer o.Close()
		if err := o.Append(local.Next, nil); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(8 * int64(n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := o.Rank(local.Head); err != nil {
				b.Fatal(err)
			}
		}
	})
}
