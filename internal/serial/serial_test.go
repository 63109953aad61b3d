package serial

import (
	"testing"
	"testing/quick"

	"listrank/internal/list"
	"listrank/internal/rng"
)

func TestRanksMatchesReference(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 3, 17, 1000} {
		l := list.NewRandom(n, r)
		got := Ranks(l)
		want := l.Ranks()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d rank[%d]=%d want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestScanMatchesReference(t *testing.T) {
	r := rng.New(2)
	l := list.NewRandom(777, r)
	l.RandomValues(-100, 100, r)
	got := Scan(l)
	want := l.ExclusiveScan()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan[%d]=%d want %d", i, got[i], want[i])
		}
	}
}

func TestScanOfOnesEqualsRanks(t *testing.T) {
	f := func(seed uint64, nn uint16) bool {
		n := int(nn%5000) + 1
		l := list.NewRandom(n, rng.New(seed))
		ranks := Ranks(l)
		scan := Scan(l)
		for i := range ranks {
			if ranks[i] != scan[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestScanOpAddition(t *testing.T) {
	r := rng.New(3)
	l := list.NewRandom(512, r)
	l.RandomValues(-9, 9, r)
	add := func(a, b int64) int64 { return a + b }
	got := ScanOp(l, add, 0)
	want := Scan(l)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScanOp(+) differs at %d", i)
		}
	}
}

func TestScanOpMax(t *testing.T) {
	r := rng.New(4)
	l := list.NewRandom(256, r)
	l.RandomValues(-1000, 1000, r)
	maxOp := func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	const negInf = int64(-1 << 62)
	got := ScanOp(l, maxOp, negInf)
	// Reference: walk the list tracking running max.
	acc := negInf
	v := l.Head
	for {
		if got[v] != acc {
			t.Fatalf("max-scan[%d] = %d want %d", v, got[v], acc)
		}
		if l.Value[v] > acc {
			acc = l.Value[v]
		}
		if l.Next[v] == v {
			break
		}
		v = l.Next[v]
	}
}

// affineCompose interprets int64 values as packed affine maps
// x -> a*x + b with a in the high 32 bits and b in the low 32 bits
// (both small, to avoid overflow), and composes them. Composition of
// affine maps is associative but NOT commutative, which exercises the
// operand-order guarantees of ScanOp.
func affineCompose(f, g int64) int64 {
	fa, fb := f>>32, int64(int32(f))
	ga, gb := g>>32, int64(int32(g))
	// (g ∘ f)(x) = ga*(fa*x+fb)+gb applied after f... we define scan
	// left-to-right: result = earlier-then-later, i.e. apply f first.
	a := (ga * fa) % 9973
	b := (ga*fb + gb) % 9973
	return a<<32 | (b & 0xffffffff)
}

func packAffine(a, b int64) int64 { return a<<32 | (b & 0xffffffff) }

func TestScanOpNonCommutative(t *testing.T) {
	r := rng.New(5)
	l := list.NewRandom(300, r)
	for i := range l.Value {
		l.Value[i] = packAffine(int64(r.Intn(7)+1), int64(r.Intn(50)))
	}
	identity := packAffine(1, 0)
	got := ScanOp(l, affineCompose, identity)
	// Reference left fold in list order.
	acc := identity
	v := l.Head
	for {
		if got[v] != acc {
			t.Fatalf("affine scan at vertex %d = %#x want %#x", v, got[v], acc)
		}
		acc = affineCompose(acc, l.Value[v])
		if l.Next[v] == v {
			break
		}
		v = l.Next[v]
	}
}

func TestIntoVariantsReuseStorage(t *testing.T) {
	l := list.NewRandom(100, rng.New(6))
	dst := make([]int64, 100)
	RanksInto(dst, l)
	want := l.Ranks()
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("RanksInto mismatch at %d", i)
		}
	}
	ScanInto(dst, l)
	wantScan := l.ExclusiveScan()
	for i := range wantScan {
		if dst[i] != wantScan[i] {
			t.Fatalf("ScanInto mismatch at %d", i)
		}
	}
}

// TestWalksRefuseEarlyTail: on the chain-plus-cycle list — the chain
// 0→1→…→n/2−1 exits to the self-loop tail n−1, and n/2…n−2 form a
// cycle off it — every walk reaches the tail after n/2 links. Each must
// panic instead of returning with the cycle's entries unwritten.
func TestWalksRefuseEarlyTail(t *testing.T) {
	const n = 1000
	l := list.NewOrdered(n)
	l.Next[n/2-1] = n - 1
	l.Next[n-2] = n / 2
	dst := make([]int64, n)
	for name, walk := range map[string]func(){
		"RanksInto":  func() { RanksInto(dst, l) },
		"ScanInto":   func() { ScanInto(dst, l) },
		"ScanOpInto": func() { ScanOpInto(dst, l, func(a, b int64) int64 { return max(a, b) }, 0) },
	} {
		func() {
			defer func() {
				if r := recover(); r != list.ErrNotList {
					t.Errorf("%s: recovered %v, want list.ErrNotList", name, r)
				}
			}()
			walk()
		}()
	}
}

func BenchmarkRanks1M(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(1))
	dst := make([]int64, l.Len())
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RanksInto(dst, l)
	}
}

func BenchmarkScan1M(b *testing.B) {
	l := list.NewRandom(1<<20, rng.New(1))
	dst := make([]int64, l.Len())
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanInto(dst, l)
	}
}

func BenchmarkRanksOrdered1M(b *testing.B) {
	// Cache-friendly layout: the analogue of the Alpha "cache" column.
	l := list.NewOrdered(1 << 20)
	dst := make([]int64, l.Len())
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RanksInto(dst, l)
	}
}
