package listrank

import (
	"errors"
	"testing"
	"time"

	"listrank/internal/govern"
)

// TestShedHardPressure: hard memory pressure sheds every new
// top-level request outright — no Shed opt-in, no deadline needed —
// and service resumes the moment pressure clears. Every shed lands in
// its own stats bucket so the accounting identity keeps balancing.
func TestShedHardPressure(t *testing.T) {
	g := govern.New(1000) // soft at 800, hard at 950
	s := NewServer(ServerOptions{Procs: 1, Governor: g})
	defer s.Close()
	l := NewRandomList(256, 1)

	if _, err := s.Submit(Request{Op: OpRank, List: l}).Wait(); err != nil {
		t.Fatalf("unpressured serve: %v", err)
	}

	g.Adjust(govern.ClassReorder, 960) // 96% of limit: hard
	tk := s.Submit(Request{Op: OpRank, List: NewRandomList(256, 2)})
	if _, err := tk.Wait(); !errors.Is(err, ErrShed) {
		t.Fatalf("under hard pressure: err = %v, want ErrShed", err)
	}

	g.Adjust(govern.ClassReorder, -960) // pressure clears
	if _, err := s.Submit(Request{Op: OpRank, List: NewRandomList(256, 3)}).Wait(); err != nil {
		t.Fatalf("post-pressure serve: %v", err)
	}

	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want 1 (%+v)", st.Shed, st)
	}
	checkIdentity(t, s)
}

// TestShedDeadlineAware: with Shed on and a warm per-shard EWMA, a
// request whose deadline cannot survive the estimated queue wait is
// rejected at submit in microseconds — ErrShed, not a late
// ErrDeadlineExceeded after occupying a queue slot.
func TestShedDeadlineAware(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 1, Shed: true})
	defer s.Close()

	// Warm the large shard's EWMA: one real serve of this size, timed
	// so the doomed deadline below can be derived from the machine's
	// actual speed instead of a guessed constant.
	const n = 1 << 17
	warm := NewRandomList(n, 4)
	warmStart := time.Now()
	if _, err := s.Submit(Request{Op: OpRank, List: warm}).Wait(); err != nil {
		t.Fatalf("warm serve: %v", err)
	}
	warmDur := time.Since(warmStart)

	// A deadline of a quarter of the measured service time: far enough
	// out that it has not already expired when admission checks it,
	// but well under the EWMA-estimated wait — so the estimate alone,
	// before any queueing, blows it.
	doomed := warmDur / 4
	if doomed < 200*time.Microsecond {
		doomed = 200 * time.Microsecond
	}
	tk := s.Submit(Request{
		Op: OpRank, List: NewRandomList(n, 5),
		Deadline: time.Now().Add(doomed),
	})
	if _, err := tk.Wait(); !errors.Is(err, ErrShed) {
		t.Fatalf("doomed deadline: err = %v, want ErrShed", err)
	}

	// A generous deadline on the same warm shard still serves.
	if _, err := s.Submit(Request{
		Op: OpRank, List: NewRandomList(n, 6),
		Deadline: time.Now().Add(time.Minute),
	}).Wait(); err != nil {
		t.Fatalf("generous deadline: %v", err)
	}

	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want 1 (%+v)", st.Shed, st)
	}
	checkIdentity(t, s)
}

// TestShedColdShardAdmits: with no EWMA observation yet, estWait is
// zero and even a microsecond deadline is admitted, not shed — the
// shard has no evidence to reject on. (It then expires or serves; the
// point is the admission decision.)
func TestShedColdShardAdmits(t *testing.T) {
	s := NewServer(ServerOptions{Procs: 1, Shed: true})
	defer s.Close()
	tk := s.Submit(Request{
		Op: OpRank, List: NewRandomList(1<<10, 7),
		Deadline: time.Now().Add(time.Microsecond),
	})
	if _, err := tk.Wait(); errors.Is(err, ErrShed) {
		t.Fatalf("cold shard shed a request with no latency evidence")
	}
	if st := s.Stats(); st.Shed != 0 {
		t.Errorf("Shed = %d on a cold server, want 0", st.Shed)
	}
	checkIdentity(t, s)
}

// TestSoftPressureSuppressesReorderBuilds: under soft pressure the
// server stops converting repeat handle traffic into cached layouts —
// no new ClassReorder bytes — but keeps serving; when pressure clears
// the same traffic builds again.
func TestSoftPressureSuppressesReorderBuilds(t *testing.T) {
	// The limit leaves ample headroom for the layout the test builds
	// at the end — the build's own ClassReorder bytes must not tip the
	// governor into pressure and turn recovery into a shed.
	g := govern.New(1 << 20)
	s := NewServer(ServerOptions{Procs: 1, ReorderAfter: 1, Governor: g})
	defer s.Close()
	l := NewRandomList(2048, 9)
	h := s.Register(l)

	g.Adjust(govern.ClassMmap, 900_000) // ~86%: soft
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(Request{Op: OpRank, Handle: h}).Wait(); err != nil {
			t.Fatalf("serve %d under soft pressure: %v", i, err)
		}
	}
	if st := s.Stats(); st.ReorderBuilds != 0 {
		t.Fatalf("ReorderBuilds = %d under soft pressure, want 0", st.ReorderBuilds)
	}

	g.Adjust(govern.ClassMmap, -900_000) // pressure clears
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(Request{Op: OpRank, Handle: h}).Wait(); err != nil {
			t.Fatalf("serve %d after pressure: %v", i, err)
		}
	}
	if st := s.Stats(); st.ReorderBuilds == 0 {
		t.Fatalf("ReorderBuilds still 0 after pressure cleared (%+v)", st)
	}
	checkIdentity(t, s)
}

// TestSoftPressureSuppressesAutoSegment: soft pressure turns off
// automatic segmentation (its segment arenas are exactly the memory
// being defended) while an explicit Request.Segments — a
// caller's deliberate choice — is still honored.
func TestSoftPressureSuppressesAutoSegment(t *testing.T) {
	g := govern.New(1000)
	s := NewServer(ServerOptions{Procs: 1, AutoSegment: 1024, Governor: g})
	defer s.Close()

	g.Adjust(govern.ClassWire, 850) // soft
	if _, err := s.Submit(Request{Op: OpRank, List: NewRandomList(1<<13, 10)}).Wait(); err != nil {
		t.Fatalf("monolithic fallback serve: %v", err)
	}
	if st := s.Stats(); st.Segmented != 0 {
		t.Fatalf("auto-segmented %d requests under soft pressure, want 0", st.Segmented)
	}
	if _, err := s.Submit(Request{Op: OpRank, List: NewRandomList(1<<13, 11), Segments: 4}).Wait(); err != nil {
		t.Fatalf("explicit segmented serve under soft pressure: %v", err)
	}
	if st := s.Stats(); st.Segmented != 1 {
		t.Fatalf("explicit Segments not honored under soft pressure (%+v)", s.Stats())
	}

	g.Adjust(govern.ClassWire, -850)
	if _, err := s.Submit(Request{Op: OpRank, List: NewRandomList(1<<13, 12)}).Wait(); err != nil {
		t.Fatalf("post-pressure auto-segment serve: %v", err)
	}
	if st := s.Stats(); st.Segmented != 2 {
		t.Fatalf("auto-segmentation did not resume after pressure cleared (%+v)", st)
	}
	checkIdentity(t, s)
}
