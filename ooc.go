package listrank

import (
	"errors"
	"fmt"
	"os"

	"listrank/internal/govern"
	"listrank/internal/list"
	"listrank/internal/mmapbuf"
	"listrank/internal/segment"
)

// Out-of-core backend: a list whose arrays exceed RAM lives in spill
// files and is ranked segment by segment, with only one segment's
// windows mapped at a time under a byte-exact resident budget
// (internal/mmapbuf). Phases follow internal/segment: per-segment run
// walks, an in-memory boundary-list rank, and a streaming offset
// broadcast — three sequential sweeps over the spill files, each at
// page-cache streaming speed.

// ErrOutOfCore wraps failures of the out-of-core engine (budget too
// small for a segment, structural damage, incomplete staging).
var ErrOutOfCore = errors.New("listrank: out-of-core")

// OutOfCoreOptions configures an out-of-core list.
type OutOfCoreOptions struct {
	// Dir is where spill files live (somewhere roomy); "" means the
	// system temp directory. A private subdirectory is created and
	// removed by Close.
	Dir string
	// Budget bounds resident mapped bytes; 0 means 64 MiB. The
	// segment length is derived so one segment's windows fit, unless
	// Segments pins the cut count (which then must fit, or ranking
	// fails with ErrOutOfCore).
	Budget int64
	// Segments pins the number of segments; 0 derives it from Budget.
	Segments int
	// Procs bounds the in-memory boundary rank's parallelism; the
	// per-segment sweeps are sequential by design (one segment
	// resident at a time).
	Procs int
	// Seed seeds the boundary rank's splitter selection.
	Seed uint64
	// Governor, when non-nil, receives this list's resident mapped
	// bytes as ClassMmap — so out-of-core traffic shows up in the same
	// process-wide pressure ledger as the serving layer's caches. nil
	// selects the shared ProcessGovernor().
	Governor *Governor
}

// OutOfCoreStats describes the last completed ranking call.
type OutOfCoreStats struct {
	// Segments and BoundaryNodes are the decomposition's S and B.
	Segments      int
	BoundaryNodes int
	// PeakResidentBytes is the mapped-bytes high-water mark since the
	// list was created; ResidentBytes is the current (0 between
	// calls — anything else is a leak).
	PeakResidentBytes int64
	ResidentBytes     int64
	// ResidentBudget echoes the configured limit.
	ResidentBudget int64
}

// OutOfCoreList is a list staged in spill files. Create with
// NewOutOfCoreList, fill sequentially with Append, rank with Rank /
// Scan / ScanOp, read the result back with ReadResult, and Close to
// delete the spill. Not safe for concurrent use.
type OutOfCoreList struct {
	n        int
	dir      string
	opt      OutOfCoreOptions
	budget   *mmapbuf.Budget
	next     *mmapbuf.File
	value    *mmapbuf.File // created by the first Append that carries values
	dst      *mmapbuf.File
	runid    *mmapbuf.File
	sc       *segment.Scratch
	appended int
	ranked   bool
	stats    OutOfCoreStats
	closed   bool
}

const defaultOOCBudget = 64 << 20

// NewOutOfCoreList creates spill storage for a list of n vertices.
func NewOutOfCoreList(n int, opt OutOfCoreOptions) (*OutOfCoreList, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative length %d", ErrOutOfCore, n)
	}
	if opt.Budget <= 0 {
		opt.Budget = defaultOOCBudget
	}
	base := opt.Dir
	if base == "" {
		base = os.TempDir()
	}
	dir, err := os.MkdirTemp(base, "listrank-ooc-*")
	if err != nil {
		return nil, err
	}
	o := &OutOfCoreList{n: n, dir: dir, opt: opt, budget: mmapbuf.NewBudget(opt.Budget), sc: segment.NewScratch()}
	if opt.Governor != nil {
		o.budget.Govern(opt.Governor)
	} else {
		o.budget.Govern(govern.Process())
	}
	for _, f := range []struct {
		name string
		dst  **mmapbuf.File
		size int64
	}{
		{"next.i64", &o.next, int64(n) * 8},
		{"dst.i64", &o.dst, int64(n) * 8},
		{"runid.i32", &o.runid, int64(n) * 4},
	} {
		*f.dst, err = mmapbuf.Create(dir, f.name, f.size, o.budget)
		if err != nil {
			o.Close()
			return nil, err
		}
	}
	return o, nil
}

// Len returns the list's length.
func (o *OutOfCoreList) Len() int { return o.n }

// Append stages the next len(next) vertices' links (and values, if
// value is non-nil — the choice is made by the first Append and must
// be consistent). Call until exactly Len vertices are staged.
func (o *OutOfCoreList) Append(next, value []int64) error {
	if o.closed {
		return fmt.Errorf("%w: list is closed", ErrOutOfCore)
	}
	if value != nil && len(value) != len(next) {
		return fmt.Errorf("%w: appending %d links with %d values", ErrOutOfCore, len(next), len(value))
	}
	if o.appended+len(next) > o.n {
		return fmt.Errorf("%w: appending past declared length %d", ErrOutOfCore, o.n)
	}
	if (value != nil) != (o.value != nil) && o.appended > 0 {
		return fmt.Errorf("%w: inconsistent value staging", ErrOutOfCore)
	}
	if value != nil && o.value == nil {
		f, err := mmapbuf.Create(o.dir, "value.i64", int64(o.n)*8, o.budget)
		if err != nil {
			return err
		}
		o.value = f
	}
	off := int64(o.appended) * 8
	if _, err := o.next.WriteAt(mmapbuf.Int64Bytes(next), off); err != nil {
		return err
	}
	if value != nil {
		if _, err := o.value.WriteAt(mmapbuf.Int64Bytes(value), off); err != nil {
			return err
		}
	}
	o.appended += len(next)
	return nil
}

// Rank ranks the staged list from head. The result is written to the
// spill (ReadResult); Stats describes the decomposition. A list that
// is not one chain from head returns an error wrapping both
// ErrOutOfCore and ErrNotList; so do Scan and ScanOp.
func (o *OutOfCoreList) Rank(head int64) error {
	return o.run(head, segment.ModeRank, nil, 0)
}

// Scan computes the exclusive integer-addition prefix of the staged
// values from head.
func (o *OutOfCoreList) Scan(head int64) error {
	return o.run(head, segment.ModeScan, nil, 0)
}

// ScanOp is Scan under an arbitrary associative operator with the
// given identity.
func (o *OutOfCoreList) ScanOp(head int64, op func(a, b int64) int64, identity int64) error {
	if op == nil {
		return fmt.Errorf("%w: nil operator", ErrOutOfCore)
	}
	return o.run(head, segment.ModeOp, op, identity)
}

// perVertex returns the worst-case mapped bytes per vertex (the Phase
// 1 working set: next + dst + runid, plus value when scanning).
func perVertex(mode segment.Mode) int64 {
	if mode == segment.ModeRank {
		return 8 + 8 + 4
	}
	return 8 + 8 + 8 + 4
}

// mapSlack bounds page-alignment overhead: four windows, each padded
// by less than a page at either end.
func mapSlack() int64 { return 8 * int64(os.Getpagesize()) }

// plan derives the segmentation for one call: the configured cut
// count if pinned, else the largest segment whose Phase 1 working set
// fits the budget.
func (o *OutOfCoreList) plan(mode segment.Mode) (segment.Plan, error) {
	pv := perVertex(mode)
	usable := o.opt.Budget - mapSlack()
	if o.opt.Segments > 0 {
		s := o.opt.Segments
		maxSeg := (o.n + s - 1) / s
		if int64(maxSeg)*pv > usable {
			return segment.Plan{}, fmt.Errorf("%w: %d segments of up to %d vertices need %d mapped bytes, budget %d",
				ErrOutOfCore, s, maxSeg, int64(maxSeg)*pv+mapSlack(), o.opt.Budget)
		}
		return segment.NewPlan(o.n, s), nil
	}
	segLen := usable / pv
	if segLen < 1 {
		return segment.Plan{}, fmt.Errorf("%w: budget %d below one vertex's working set", ErrOutOfCore, o.opt.Budget)
	}
	s := 1
	if int64(o.n) > segLen {
		s = int((int64(o.n) + segLen - 1) / segLen)
	}
	return segment.NewPlan(o.n, s), nil
}

// mapped tracks live regions for panic-safe cleanup.
type mapped struct{ rs []*mmapbuf.Region }

func (m *mapped) win(f *mmapbuf.File, off, length int64, writable bool) (*mmapbuf.Region, error) {
	r, err := f.Map(off, length, writable)
	if err != nil {
		return nil, err
	}
	m.rs = append(m.rs, r)
	return r, nil
}

func (m *mapped) drop() {
	for _, r := range m.rs {
		r.Unmap()
	}
	m.rs = m.rs[:0]
}

func (o *OutOfCoreList) run(head int64, mode segment.Mode, op func(a, b int64) int64, identity int64) (err error) {
	if o.closed {
		return fmt.Errorf("%w: list is closed", ErrOutOfCore)
	}
	if o.appended != o.n {
		return fmt.Errorf("%w: %d of %d vertices staged", ErrOutOfCore, o.appended, o.n)
	}
	if mode != segment.ModeRank && o.value == nil {
		return fmt.Errorf("%w: scan over a list staged without values", ErrOutOfCore)
	}
	o.ranked = false
	if o.n == 0 {
		o.stats = o.statsNow(1, 0)
		o.ranked = true
		return nil
	}
	plan, err := o.plan(mode)
	if err != nil {
		return err
	}

	var live mapped
	defer func() {
		live.drop()
		o.sc.Release()
		// Structural damage surfaces as the segment engine's panic,
		// wrapped when the boundary rank fanned out; everything else
		// (I/O, budget) is already an error.
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, list.ErrNotList) {
				err = fmt.Errorf("%w: %w", ErrOutOfCore, e)
				return
			}
			panic(r)
		}
	}()

	// Pass A: discover exits, one next window at a time.
	o.sc.PrepareBegin(plan)
	S := plan.Segments()
	for s := 0; s < S; s++ {
		lo, hi := plan.Bounds(s)
		r, err := live.win(o.next, int64(lo)*8, int64(hi-lo)*8, false)
		if err != nil {
			return err
		}
		o.sc.AnalyzeWindow(s, r.Int64s())
		live.drop()
	}
	B := o.sc.Assemble(head)

	// Phase 1: walk each segment's runs with its windows resident.
	for s := 0; s < S; s++ {
		st, err := o.subTask(&live, plan, s, mode, op, identity, true)
		if err != nil {
			return err
		}
		st.Phase1(nil)
		live.drop()
	}

	// Phase 2: boundary rank, entirely in memory.
	rh := o.sc.Stitch(plan, head)
	o.sc.Phase2(rh, mode, op, identity, segment.Options{Procs: o.opt.Procs, Seed: o.opt.Seed})

	// Phase 3: stream the offset broadcast.
	for s := 0; s < S; s++ {
		st, err := o.subTask(&live, plan, s, mode, op, identity, false)
		if err != nil {
			return err
		}
		st.Phase3(nil)
		live.drop()
	}

	o.stats = o.statsNow(S, B)
	o.ranked = true
	return nil
}

// subTask maps segment s's windows and assembles its SubTask. Phase 1
// (phase1 true) needs next (+value when scanning); Phase 3 needs only
// dst and runid.
func (o *OutOfCoreList) subTask(live *mapped, plan segment.Plan, s int, mode segment.Mode, op func(a, b int64) int64, identity int64, phase1 bool) (segment.SubTask, error) {
	lo, hi := plan.Bounds(s)
	bo, bl := int64(lo)*8, int64(hi-lo)*8
	heads, sum, exit, nodeBase, pfx := o.sc.SubWindows(s)
	st := segment.SubTask{
		Lo: int64(lo), Hi: int64(hi),
		Heads: heads, Sum: sum, Exit: exit, NodeBase: nodeBase, Pfx: pfx,
		Mode: mode, Op: op, Identity: identity,
	}
	dstR, err := live.win(o.dst, bo, bl, true)
	if err != nil {
		return st, err
	}
	st.Dst = dstR.Int64s()
	ridR, err := live.win(o.runid, int64(lo)*4, int64(hi-lo)*4, phase1)
	if err != nil {
		return st, err
	}
	st.RunID = ridR.Int32s()
	if phase1 {
		nextR, err := live.win(o.next, bo, bl, false)
		if err != nil {
			return st, err
		}
		st.Next = nextR.Int64s()
		if mode != segment.ModeRank {
			valR, err := live.win(o.value, bo, bl, false)
			if err != nil {
				return st, err
			}
			st.Value = valR.Int64s()
		}
	}
	return st, nil
}

func (o *OutOfCoreList) statsNow(S, B int) OutOfCoreStats {
	return OutOfCoreStats{
		Segments:          S,
		BoundaryNodes:     B,
		PeakResidentBytes: o.budget.Peak(),
		ResidentBytes:     o.budget.Resident(),
		ResidentBudget:    o.opt.Budget,
	}
}

// Stats describes the last completed call (zero before the first).
func (o *OutOfCoreList) Stats() OutOfCoreStats {
	s := o.stats
	s.PeakResidentBytes = o.budget.Peak()
	s.ResidentBytes = o.budget.Resident()
	return s
}

// ReadResult copies result window [off, off+len(out)) from the spill
// into out. Valid after a successful Rank / Scan / ScanOp.
func (o *OutOfCoreList) ReadResult(off int, out []int64) error {
	if o.closed {
		return fmt.Errorf("%w: list is closed", ErrOutOfCore)
	}
	if !o.ranked {
		return fmt.Errorf("%w: no completed ranking call", ErrOutOfCore)
	}
	if off < 0 || off+len(out) > o.n {
		return fmt.Errorf("%w: result window [%d,%d) outside list of %d", ErrOutOfCore, off, off+len(out), o.n)
	}
	if len(out) == 0 {
		return nil
	}
	_, err := o.dst.ReadAt(mmapbuf.Int64Bytes(out), int64(off)*8)
	return err
}

// Close unmaps everything, deletes the spill directory and releases
// the arena. Idempotent.
func (o *OutOfCoreList) Close() error {
	if o.closed {
		return nil
	}
	o.closed = true
	var first error
	for _, f := range []*mmapbuf.File{o.next, o.value, o.dst, o.runid} {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(o.dir); err != nil && first == nil {
		first = err
	}
	return first
}
