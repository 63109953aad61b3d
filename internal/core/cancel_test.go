package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"listrank/internal/list"
	"listrank/internal/rng"
)

// mustCancel runs f and asserts it panics with ErrCanceled.
func mustCancel(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("canceled run completed instead of panicking ErrCanceled")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled run panicked with %v, want ErrCanceled", r)
		}
	}()
	f()
}

// checkRestored asserts the engine's deferred restore ran: the list is
// a valid single chain again and the all-ones values are untouched.
func checkRestored(t *testing.T, l *list.List) {
	t.Helper()
	if err := l.Validate(); err != nil {
		t.Fatalf("list not restored after canceled run: %v", err)
	}
	for i, v := range l.Value {
		if v != 1 {
			t.Fatalf("Value[%d] = %d after canceled run, want 1 (restored)", i, v)
		}
	}
}

// TestCancelPreTripped: a run whose token is tripped before it starts
// must abandon at the first phase boundary with ErrCanceled, restoring
// the list on the way out. Exercised across both engines (rank and
// generic scan) and both Procs regimes.
func TestCancelPreTripped(t *testing.T) {
	const n = 1 << 15
	for _, procs := range []int{1, 4} {
		l := list.NewRandom(n, rng.New(7))
		out := make([]int64, n)
		var cn Cancel
		cn.Trip()
		mustCancel(t, func() {
			RanksInto(out, l, Options{Procs: procs, Cancel: &cn}, nil)
		})
		checkRestored(t, l)

		sl := list.NewRandom(n, rng.New(8))
		mustCancel(t, func() {
			ScanInto(out, sl, Options{Procs: procs, Cancel: &cn}, nil)
		})
		checkRestored(t, sl)
	}
}

// TestCancelMidRun: tripping the token from another goroutine while
// the engine is chasing must abandon the run at a later strip or phase
// boundary, not run to completion oblivious and not hang.
func TestCancelMidRun(t *testing.T) {
	const n = 1 << 20
	l := list.NewRandom(n, rng.New(11))
	out := make([]int64, n)
	var cn Cancel
	done := make(chan struct{})
	go func() {
		time.Sleep(200 * time.Microsecond) // land mid-phase with high probability
		cn.Trip()
		close(done)
	}()
	// The run either finishes before the trip lands (fine) or must
	// unwind with ErrCanceled; anything else fails.
	func() {
		defer func() {
			if r := recover(); r != nil {
				err, ok := r.(error)
				if !ok || !errors.Is(err, ErrCanceled) {
					t.Fatalf("mid-run cancel panicked with %v, want ErrCanceled", r)
				}
			}
		}()
		RanksInto(out, l, Options{Procs: 4, Cancel: &cn}, nil)
	}()
	<-done
	checkRestored(t, l)
}

// TestCancelDeadlineAndContext: both expiry sources trip Canceled, and
// Reset disarms them so a recycled token serves the next run.
func TestCancelDeadlineAndContext(t *testing.T) {
	var cn Cancel
	cn.Arm(nil, time.Now().Add(-time.Second))
	if !cn.Canceled() || !cn.DeadlineExceeded() {
		t.Fatal("expired deadline not observed")
	}
	cn.Reset()
	if cn.Canceled() {
		t.Fatal("Reset left the token canceled")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cn.Arm(ctx, time.Time{})
	if cn.Canceled() {
		t.Fatal("live context observed as canceled")
	}
	cancel()
	if !cn.Canceled() {
		t.Fatal("done context not observed")
	}
	if cn.DeadlineExceeded() {
		t.Fatal("context cancellation misreported as deadline expiry")
	}
	cn.Reset()
	if cn.Canceled() {
		t.Fatal("Reset left the context armed")
	}

	// A nil token is never canceled (the engine's default path).
	var nilTok *Cancel
	if nilTok.Canceled() || nilTok.DeadlineExceeded() {
		t.Fatal("nil Cancel reported canceled")
	}
}

// BenchmarkCancelOverhead measures the cost of the cooperative
// cancellation checks on a warm whole-list rank at 2^22: "off" runs
// with a nil token (the default path — nil-receiver methods
// short-circuit), "armed" with a live deadline+context token polled at
// every phase boundary and kernel strip. The armed column must stay
// within 2% of off (EXPERIMENTS.md, "Cancellation overhead").
func BenchmarkCancelOverhead(b *testing.B) {
	const n = 1 << 22
	l := list.NewRandom(n, rng.New(5))
	out := make([]int64, n)
	for _, procs := range []int{1, 4} {
		for _, mode := range []string{"off", "armed"} {
			var cn *Cancel
			if mode == "armed" {
				cn = new(Cancel)
				cn.Arm(context.Background(), time.Now().Add(24*time.Hour))
			}
			b.Run(fmt.Sprintf("procs%d/%s", procs, mode), func(b *testing.B) {
				opt := Options{Procs: procs, Cancel: cn}
				sc := NewScratch()
				RanksInto(out, l, opt, sc) // warm the arena
				b.SetBytes(8 * n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opt.Seed = uint64(i)
					RanksInto(out, l, opt, sc)
				}
			})
		}
	}
}

// TestCancelScanAndOp: the addition scan at both the single-cursor and
// the default lane width, and the generic operator engine, honor
// pre-tripped tokens too.
func TestCancelScanAndOp(t *testing.T) {
	const n = 1 << 14
	var cn Cancel
	cn.Trip()
	out := make([]int64, n)
	for _, procs := range []int{1, 2} {
		for _, lw := range []int{1, 0} {
			l := list.NewRandom(n, rng.New(3))
			mustCancel(t, func() {
				ScanInto(out, l, Options{Procs: procs, LaneWidth: lw, Cancel: &cn}, nil)
			})
			checkRestored(t, l)
		}

		ol := list.NewRandom(n, rng.New(4))
		mustCancel(t, func() {
			ScanOpInto(out, ol, func(a, b int64) int64 { return max(a, b) }, 0, Options{Procs: procs, Cancel: &cn}, nil)
		})
		checkRestored(t, ol)
	}
}
