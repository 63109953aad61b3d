package core

import (
	"testing"
	"testing/quick"

	"listrank/internal/list"
	"listrank/internal/rng"
	"listrank/internal/serial"
)

func equal(t *testing.T, got, want []int64, what string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d want %d", what, i, got[i], want[i])
		}
	}
}

func TestRanksAcrossSizes(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 3, 10, 100, 1023, 1024, 1025, 5000, 1 << 15} {
		l := list.NewRandom(n, r)
		equal(t, Ranks(l, Options{Seed: uint64(n)}), l.Ranks(), "Ranks")
	}
}

func TestScanAcrossSizes(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{1, 1025, 4096, 1 << 15} {
		l := list.NewRandom(n, r)
		l.RandomValues(-100, 100, r)
		equal(t, Scan(l, Options{Seed: 7}), serial.Scan(l), "Scan")
	}
}

func TestShapes(t *testing.T) {
	for name, l := range map[string]*list.List{
		"ordered":  list.NewOrdered(5000),
		"reversed": list.NewReversed(5000),
		"blocked":  list.NewBlocked(5000, 64, rng.New(3)),
	} {
		equal(t, Ranks(l, Options{Seed: 4}), l.Ranks(), name)
	}
}

func TestProcsVariants(t *testing.T) {
	r := rng.New(5)
	l := list.NewRandom(20000, r)
	l.RandomValues(-50, 50, r)
	want := serial.Scan(l)
	for _, de := range []bool{false, true} { // narrow and wide layouts
		for _, p := range []int{1, 2, 3, 4, 8, 16} {
			equal(t, Scan(l, Options{Seed: 6, Procs: p, DisableEncoding: de}), want, "Scan procs")
		}
	}
}

func TestMVariants(t *testing.T) {
	l := list.NewRandom(8192, rng.New(7))
	want := l.Ranks()
	for _, m := range []int{1, 2, 10, 100, 1000, 4096} {
		equal(t, Ranks(l, Options{Seed: 8, M: m}), want, "Ranks m")
	}
}

func TestSeedSweep(t *testing.T) {
	l := list.NewRandom(6000, rng.New(9))
	want := l.Ranks()
	for seed := uint64(0); seed < 10; seed++ {
		equal(t, Ranks(l, Options{Seed: seed}), want, "Ranks seed")
	}
}

func TestPhase2Variants(t *testing.T) {
	r := rng.New(10)
	l := list.NewRandom(50000, r)
	l.RandomValues(-10, 10, r)
	want := serial.Scan(l)
	for _, de := range []bool{false, true} {
		for _, alg := range []Phase2Algorithm{Phase2Auto, Phase2Serial, Phase2Wyllie, Phase2Recursive} {
			equal(t, Scan(l, Options{Seed: 11, Phase2: alg, DisableEncoding: de}), want, "phase2")
		}
	}
}

// TestSingleLaneMatchesSerial: the single-cursor chase (LaneWidth 1,
// the K=1 oracle) agrees with the serial scan at several Procs, in
// both the narrow and the wide layout.
func TestSingleLaneMatchesSerial(t *testing.T) {
	r := rng.New(12)
	l := list.NewRandom(30000, r)
	l.RandomValues(-20, 20, r)
	want := serial.Scan(l)
	for _, de := range []bool{false, true} {
		for _, p := range []int{1, 2, 4} {
			got := Scan(l, Options{Seed: 13, Procs: p, LaneWidth: 1, DisableEncoding: de})
			equal(t, got, want, "single lane")
		}
	}
}

func TestInputRestoredAfterRun(t *testing.T) {
	r := rng.New(16)
	l := list.NewRandom(9000, r)
	l.RandomValues(-5, 5, r)
	before := l.Clone()
	// Neither layout may write the list: a rank, a scan and a ScanOp in
	// the narrow and the wide (DisableEncoding) layout.
	for _, de := range []bool{false, true} {
		_ = Scan(l, Options{Seed: 17, DisableEncoding: de})
		_ = Ranks(l, Options{Seed: 18, LaneWidth: 1, DisableEncoding: de})
		_ = ScanOp(l, func(a, b int64) int64 { return max(a, b) }, -1<<62, Options{Seed: 19, DisableEncoding: de})
		for i := range before.Next {
			if l.Next[i] != before.Next[i] || l.Value[i] != before.Value[i] {
				t.Fatalf("DisableEncoding=%v: input not restored at vertex %d", de, i)
			}
		}
	}
}

func TestScanIntoDirtyBuffer(t *testing.T) {
	// The algorithm borrows the output array for its splitter
	// competition; a caller-provided buffer full of garbage must not
	// confuse it.
	r := rng.New(19)
	l := list.NewRandom(5000, r)
	l.RandomValues(-9, 9, r)
	want := serial.Scan(l)
	dst := make([]int64, l.Len())
	for _, de := range []bool{false, true} {
		for i := range dst {
			dst[i] = int64(i)*7 + 3 // garbage, including at the tail
		}
		ScanInto(dst, l, Options{Seed: 20, DisableEncoding: de}, nil)
		equal(t, dst, want, "dirty dst")
	}
}

func TestStatsPopulated(t *testing.T) {
	l := list.NewRandom(1<<15, rng.New(21))
	st := Stats{}
	_ = Ranks(l, Options{Seed: 22, Stats: &st})
	if st.Sublists < 2 {
		t.Errorf("Sublists = %d, want many", st.Sublists)
	}
	if st.Phase2Len != st.Sublists {
		t.Errorf("Phase2Len = %d != Sublists %d", st.Phase2Len, st.Sublists)
	}
	if st.LinksTraversed < int64(l.Len()) {
		t.Errorf("LinksTraversed = %d, want >= n", st.LinksTraversed)
	}
}

func TestRecursionDepth(t *testing.T) {
	// With a huge M relative to cutoffs the reduced list stays large
	// and Phase 2 must recurse.
	l := list.NewRandom(1<<17, rng.New(23))
	st := Stats{}
	_ = Ranks(l, Options{Seed: 24, Phase2: Phase2Recursive, Stats: &st})
	if st.Depth < 1 {
		t.Errorf("Depth = %d, want >= 1 for forced recursion", st.Depth)
	}
	equal(t, Ranks(l, Options{Seed: 24, Phase2: Phase2Recursive}), l.Ranks(), "recursive ranks")
}

func TestDuplicateSplittersHandled(t *testing.T) {
	// Tiny list with M comparable to n forces many duplicate draws.
	l := list.NewRandom(2048, rng.New(25))
	st := Stats{}
	got := Ranks(l, Options{Seed: 26, M: 1024, SerialCutoff: 16, Stats: &st})
	equal(t, got, l.Ranks(), "dup splitters")
	if st.DuplicatesDropped == 0 {
		t.Log("no duplicates this seed (unusual but possible)")
	}
	if st.Sublists > 1025 {
		t.Errorf("Sublists = %d > M+1", st.Sublists)
	}
}

func TestDefaultM(t *testing.T) {
	if DefaultM(3) != 0 {
		t.Error("DefaultM(3) should be 0 (serial)")
	}
	if m := DefaultM(1 << 20); m != (1<<20)/20 {
		t.Errorf("DefaultM(2^20) = %d, want %d", m, (1<<20)/20)
	}
	// m must stay below n/log n-ish so Phase 2 shrinks the problem.
	for _, n := range []int{100, 10000, 1 << 22} {
		if m := DefaultM(n); m >= n {
			t.Errorf("DefaultM(%d) = %d too large", n, m)
		}
	}
}

func TestScanOpNonCommutative(t *testing.T) {
	packAffine := func(a, b int64) int64 { return a<<32 | (b & 0xffffffff) }
	affine := func(f, g int64) int64 {
		fa, fb := f>>32, int64(int32(f))
		ga, gb := g>>32, int64(int32(g))
		return ((ga * fa) % 9973 << 32) | (((ga*fb + gb) % 9973) & 0xffffffff)
	}
	r := rng.New(27)
	for _, n := range []int{100, 2000, 40000} {
		l := list.NewRandom(n, r)
		for i := range l.Value {
			l.Value[i] = packAffine(int64(r.Intn(7)+1), int64(r.Intn(50)))
		}
		id := packAffine(1, 0)
		want := serial.ScanOp(l, affine, id)
		for _, p := range []int{1, 4} {
			got := ScanOp(l, affine, id, Options{Seed: 28, Procs: p, SerialCutoff: 64})
			equal(t, got, want, "ScanOp")
		}
	}
}

func TestScanOpMinOperator(t *testing.T) {
	r := rng.New(29)
	l := list.NewRandom(30000, r)
	l.RandomValues(-1000000, 1000000, r)
	minOp := func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	const posInf = int64(1 << 62)
	want := serial.ScanOp(l, minOp, posInf)
	got := ScanOp(l, minOp, posInf, Options{Seed: 30, Phase2: Phase2Recursive, SerialCutoff: 128})
	equal(t, got, want, "min scan")
}

func TestQuickAgainstSerial(t *testing.T) {
	f := func(seed uint64, nn uint16, pp, mm uint8, single bool) bool {
		n := int(nn%20000) + 1
		p := int(pp%8) + 1
		r := rng.New(seed)
		l := list.NewRandom(n, r)
		l.RandomValues(-100, 100, r)
		want := serial.Scan(l)
		lanes := 0
		if single {
			lanes = 1
		}
		opt := Options{
			Seed:         seed ^ 0xabcdef,
			Procs:        p,
			M:            int(mm) * n / 300,
			LaneWidth:    lanes,
			SerialCutoff: 32,
		}
		got := Scan(l, opt)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTinySerialCutoffStress(t *testing.T) {
	// Force the parallel machinery to run on very small lists where
	// every edge case (m close to n, empty sublists, adjacent
	// splitters) is likely.
	r := rng.New(31)
	for n := 2; n <= 200; n++ {
		l := list.NewRandom(n, r)
		got := Ranks(l, Options{Seed: uint64(n), M: n / 2, SerialCutoff: 1})
		equal(t, got, l.Ranks(), "tiny list")
	}
}

func BenchmarkRanks1M(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(1))
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Ranks(l, Options{Seed: uint64(i)})
	}
}

func BenchmarkScan1M(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(1))
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Scan(l, Options{Seed: uint64(i)})
	}
}

func BenchmarkScan1MParallel8(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(1))
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Scan(l, Options{Seed: uint64(i), Procs: 8})
	}
}

func BenchmarkScanSingleCursor1M(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(1))
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Scan(l, Options{Seed: uint64(i), LaneWidth: 1})
	}
}

// TestScanOpLaneWidths runs non-commutative and order-sensitive
// operators through the wide layout at the single-cursor width and the
// default width.
func TestScanOpLaneWidths(t *testing.T) {
	packAffine := func(a, b int64) int64 { return a<<32 | (b & 0xffffffff) }
	affine := func(f, g int64) int64 {
		fa, fb := f>>32, int64(int32(f))
		ga, gb := g>>32, int64(int32(g))
		return ((ga * fa) % 9973 << 32) | (((ga*fb + gb) % 9973) & 0xffffffff)
	}
	r := rng.New(33)
	l := list.NewRandom(30000, r)
	for i := range l.Value {
		l.Value[i] = packAffine(int64(r.Intn(7)+1), int64(r.Intn(50)))
	}
	id := packAffine(1, 0)
	want := serial.ScanOp(l, affine, id)
	for _, lw := range []int{1, 0} {
		for _, p := range []int{1, 3} {
			got := ScanOp(l, affine, id, Options{
				Seed: 34, Procs: p, SerialCutoff: 64, LaneWidth: lw,
			})
			equal(t, got, want, "affine ScanOp")
		}
	}
	maxOp := func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	const negInf = int64(-1 << 62)
	l2 := list.NewRandom(20000, r)
	l2.RandomValues(-9999, 9999, r)
	wantMax := serial.ScanOp(l2, maxOp, negInf)
	for _, lw := range []int{1, 0} {
		got := ScanOp(l2, maxOp, negInf, Options{Seed: 35, SerialCutoff: 64, LaneWidth: lw})
		equal(t, got, wantMax, "max scan")
	}
}
