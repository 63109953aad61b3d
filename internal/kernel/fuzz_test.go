package kernel

import (
	"math"
	"testing"

	"listrank/internal/rng"
)

// FuzzLaneChase drives the lane-interleaved chase kernels against the
// single-cursor oracle (lanes == 1), and the record and stream kernels
// against safe reference walks, over fuzz-chosen sublist populations,
// value scales, chunk boundaries, vertex windows and lane widths. The
// chunk boundaries are the interesting part: a lane that retires with
// the chunk nearly drained must refill exactly from its own worker's
// [lo, hi) range and then park without touching neighboring chunks'
// slots. The value scale is the other: the values are multiplied by a
// factor of scale's sign and magnitude, clamped to at least 1 and to
// at most what keeps Σ|value| ≤ 2^31 − 1 (the narrow scan's bound), so
// a narrow scan's 32-bit prefixes reach toward the + edge (scale > 0)
// or the − edge (scale < 0), where a wrong sign extension shows.
func FuzzLaneChase(f *testing.F) {
	f.Add(uint64(1), uint8(13), uint8(4), uint8(0), uint8(13), int32(1))
	f.Add(uint64(7), uint8(40), uint8(16), uint8(3), uint8(5), int32(1))
	f.Add(uint64(99), uint8(1), uint8(32), uint8(0), uint8(1), int32(1))
	f.Add(uint64(3), uint8(200), uint8(2), uint8(199), uint8(200), int32(1))
	f.Add(uint64(99), uint8(1), uint8(32), uint8(0), uint8(1), int32(math.MaxInt32))
	f.Add(uint64(5), uint8(3), uint8(1), uint8(0), uint8(3), int32(math.MinInt32))
	f.Add(uint64(11), uint8(60), uint8(8), uint8(10), uint8(40), int32(-1000))
	f.Fuzz(func(t *testing.T, seed uint64, nSub, lanes, loRaw, hiRaw uint8, scale int32) {
		k := int(nSub)
		if k == 0 {
			return
		}
		// Sublist lengths: exponential-ish mix with singletons, from
		// the seed so the corpus explores shapes.
		r := rng.New(seed)
		lengths := make([]int, k)
		for j := range lengths {
			switch r.Intn(4) {
			case 0:
				lengths[j] = 1
			case 1:
				lengths[j] = 1 + r.Intn(3)
			default:
				lengths[j] = 1 + r.Intn(50)
			}
		}
		s := makeSublists(lengths, seed^0x9e3779b97f4a7c15)
		var abs int64
		for _, x := range s.values {
			abs += max(x, -x)
		}
		factor := min(max(int64(scale), -int64(scale), 1), math.MaxInt32/max(abs, 1))
		if scale < 0 {
			factor = -factor
		}
		for v := range s.values {
			s.values[v] *= factor
		}
		lo := int(loRaw) % k
		hi := lo + int(hiRaw)%(k-lo+1)
		K := int(lanes)

		wantSum, wantCur := refSumAdd(s, lo, hi)
		sum := make([]int64, k)
		cur := make([]int64, k)
		SumAdd(s.next, s.values, s.h, sum, cur, lo, hi, K)
		for j := lo; j < hi; j++ {
			if sum[j] != wantSum[j] || cur[j] != wantCur[j] {
				t.Fatalf("SumAdd K=%d chunk [%d,%d) vp %d: got (%d,%d), want (%d,%d)",
					K, lo, hi, j, sum[j], cur[j], wantSum[j], wantCur[j])
			}
		}
		// Slots outside the chunk must be untouched (zero).
		for j := 0; j < k; j++ {
			if j >= lo && j < hi {
				continue
			}
			if sum[j] != 0 || cur[j] != 0 {
				t.Fatalf("SumAdd K=%d chunk [%d,%d): wrote outside chunk at vp %d", K, lo, hi, j)
			}
		}

		pfx := make([]int64, k)
		for j := range pfx {
			pfx[j] = int64(j * 31)
		}
		wantOut := refExpandAdd(s, pfx, lo, hi)
		out := make([]int64, len(s.next))
		ExpandAdd(out, s.next, s.values, s.h, pfx, lo, hi, K)
		for v := range out {
			if out[v] != wantOut[v] {
				t.Fatalf("ExpandAdd K=%d chunk [%d,%d) vertex %d: got %d, want %d",
					K, lo, hi, v, out[v], wantOut[v])
			}
		}

		// The encoded twin on the same population.
		e := s.enc()
		SumEnc(e, s.h, sum, cur, lo, hi, K)
		for j := lo; j < hi; j++ {
			if sum[j] != int64(lengths[j]) {
				t.Fatalf("SumEnc K=%d vp %d: length %d, want %d", K, j, sum[j], lengths[j])
			}
		}

		// The record kernels of every layout over the same chunk, then
		// the streams over a fuzz-chosen vertex window of the fully
		// recorded words.
		n := len(s.next)
		vlo := int(loRaw) * n / 256
		vhi := vlo + int(hiRaw)*(n-vlo)/255
		for _, lay := range layouts {
			base := s.words(lay)
			if d := diffRecorded(runRecord(s, base, lay, lo, hi, K), refRecord(s, base, lay, lo, hi)); d != "" {
				t.Fatalf("record layout %d K=%d chunk [%d,%d): %s", lay, K, lo, hi, d)
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
