package listrank

import (
	"testing"
)

// FuzzScanValuesAssociativity checks the generic scan's ranked path
// against the serial walk under a non-commutative operator whose
// failure modes (reordering, wrong identity, off-by-one prefix) all
// change bits. It calls the ranked path directly: ScanValues itself
// walks every list this short.
func FuzzScanValuesAssociativity(f *testing.F) {
	f.Add(uint16(3), uint64(0), uint16(0))
	f.Add(uint16(2500), uint64(9), uint16(77))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed uint64, mRaw uint16) {
		n := 1 + int(nRaw)%4000
		l := NewRandomList(n, seed)
		vals := make([][2]int64, n)
		for i := range vals {
			vals[i] = [2]int64{int64(i%5 - 2), int64(i % 3)}
		}
		compose := func(a, b [2]int64) [2]int64 {
			return [2]int64{a[0] * b[0], a[0]*b[1] + a[1]}
		}
		id := [2]int64{1, 0}
		want := ScanValues(l, vals, compose, id, Options{Algorithm: Serial})
		got := make([][2]int64, n)
		scanValuesRanked(l, vals, compose, id, Options{Seed: seed * 31, M: int(mRaw) % n, Procs: 4}, got)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("out[%d] = %v, want %v (n=%d seed=%d)", v, got[v], want[v], n, seed)
			}
		}
	})
}
