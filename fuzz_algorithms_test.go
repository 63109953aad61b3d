package listrank_test

import (
	"testing"

	"listrank"
	"listrank/repro"
)

// FuzzAlgorithmsAgree drives every algorithm over lists whose length,
// seed and option knobs come from the fuzzer, demanding bit-identical
// ranks from all of them. The interesting degrees of freedom for a
// list are not its bytes but its shape parameters, so the fuzz input
// is the parameter vector. The sublist algorithm also takes the
// fuzzed splitter count; the paper's other algorithms run through
// package repro, which this external test package can import.
func FuzzAlgorithmsAgree(f *testing.F) {
	f.Add(uint16(1), uint64(0), uint16(0), uint8(1))
	f.Add(uint16(2), uint64(1), uint16(1), uint8(2))
	f.Add(uint16(1000), uint64(42), uint16(31), uint8(4))
	f.Add(uint16(4097), uint64(7), uint16(999), uint8(3))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed uint64, mRaw uint16, procsRaw uint8) {
		n := 1 + int(nRaw)%5000
		l := listrank.NewRandomList(n, seed)
		opt := listrank.Options{
			Seed:  seed ^ 0xabcdef,
			M:     int(mRaw) % n,
			Procs: 1 + int(procsRaw)%8,
		}
		want := listrank.RankWith(l, listrank.Options{Algorithm: listrank.Serial})
		check := func(name string, got []int64) {
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s: rank[%d] = %d, want %d (n=%d seed=%d m=%d p=%d)",
						name, v, got[v], want[v], n, seed, opt.M, opt.Procs)
				}
			}
		}
		check("sublist", listrank.RankWith(l, opt))
		for _, a := range []repro.Algorithm{repro.Wyllie, repro.MillerReif, repro.AndersonMiller, repro.RulingSet} {
			check(a.String(), repro.Rank(l, repro.Options{Algorithm: a, Seed: opt.Seed, Procs: opt.Procs}))
		}
	})
}
