// Package govern provides a process-wide memory governor: one
// accounting point for the byte footprints that the serving stack
// otherwise tracks in private budgets (reorder-cache layouts,
// the segment arenas of segmented requests in service, out-of-core
// mmap windows, pooled wire buffers), plus a derived pressure level
// every subsystem can read cheaply.
//
// The governor is an accountant, not an allocator: Adjust never
// fails and never blocks. Subsystems report what they hold and ask
// Level() before taking on new optional work. Policy lives in the
// callers:
//
//   - under LevelSoft the Server stops building new reorder layouts
//     and stops auto-segmenting (it serves monolithic/cold instead);
//   - under LevelHard the Server sheds load outright (ErrShed).
//
// A zero or negative limit means "unlimited": accounting still
// happens (so /metrics can report per-class usage) but Level is
// always LevelOK.
package govern

import "sync/atomic"

// Class identifies which subsystem a byte adjustment belongs to.
type Class int

const (
	// ClassReorder counts cached reorder-layout bytes (handle.go).
	ClassReorder Class = iota
	// ClassSegment counts the segment arenas (segment.Scratch) of
	// segmented requests a Server is serving, each from its Prepare to
	// its completion.
	ClassSegment
	// ClassMmap counts resident out-of-core mmap windows.
	ClassMmap
	// ClassWire counts pooled wire-codec buffers held by live
	// daemon connections.
	ClassWire

	numClasses
)

// String returns the metrics-friendly name of the class.
func (c Class) String() string {
	switch c {
	case ClassReorder:
		return "reorder"
	case ClassSegment:
		return "segment"
	case ClassMmap:
		return "mmap"
	case ClassWire:
		return "wire"
	}
	return "unknown"
}

// Level is the governor's pressure reading.
type Level int

const (
	// LevelOK: usage below the soft threshold; all subsystems run
	// at full function.
	LevelOK Level = iota
	// LevelSoft: usage at or above the soft threshold; optional
	// memory growth (layout builds, auto-segmentation) should stop.
	LevelSoft
	// LevelHard: usage at or above the hard threshold; new work
	// should be shed.
	LevelHard
)

// String returns the metrics-friendly name of the level.
func (l Level) String() string {
	switch l {
	case LevelOK:
		return "ok"
	case LevelSoft:
		return "soft"
	case LevelHard:
		return "hard"
	}
	return "unknown"
}

// Default pressure thresholds, as a fraction of the limit.
const (
	defaultSoftPct = 80
	defaultHardPct = 95
)

// Governor is a process-wide byte accountant with pressure levels.
// The zero value is ready to use and unlimited; use New to set a
// limit. All methods are safe for concurrent use.
type Governor struct {
	limit   atomic.Int64 // <=0: unlimited
	softPct atomic.Int64 // percent of limit; 0 means default
	hardPct atomic.Int64
	used    atomic.Int64
	byClass [numClasses]atomic.Int64
}

// New returns a Governor with the given byte limit. limit <= 0 means
// unlimited: accounting happens but Level is always LevelOK.
func New(limit int64) *Governor {
	g := &Governor{}
	g.limit.Store(limit)
	return g
}

// SetLimit replaces the byte limit. limit <= 0 means unlimited.
func (g *Governor) SetLimit(limit int64) { g.limit.Store(limit) }

// Limit returns the configured byte limit (<=0: unlimited).
func (g *Governor) Limit() int64 { return g.limit.Load() }

// SetThresholds overrides the soft/hard pressure thresholds,
// expressed as percentages of the limit. Values outside (0, 100] or
// soft > hard fall back to the defaults (80/95).
func (g *Governor) SetThresholds(softPct, hardPct int64) {
	if softPct <= 0 || hardPct <= 0 || softPct > 100 || hardPct > 100 || softPct > hardPct {
		softPct, hardPct = 0, 0
	}
	g.softPct.Store(softPct)
	g.hardPct.Store(hardPct)
}

// Adjust records delta bytes (negative to release) against class.
// It never fails and never blocks: the governor is an accountant,
// and enforcement happens at the policy points that read Level.
func (g *Governor) Adjust(class Class, delta int64) {
	if g == nil || delta == 0 {
		return
	}
	g.byClass[class].Add(delta)
	g.used.Add(delta)
}

// Used returns the total accounted bytes across all classes.
func (g *Governor) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// ClassUsed returns the accounted bytes for one class.
func (g *Governor) ClassUsed(class Class) int64 {
	if g == nil {
		return 0
	}
	return g.byClass[class].Load()
}

// Level derives the current pressure level from usage vs limit.
// A nil governor or an unlimited one always reads LevelOK.
func (g *Governor) Level() Level {
	if g == nil {
		return LevelOK
	}
	limit := g.limit.Load()
	if limit <= 0 {
		return LevelOK
	}
	soft, hard := g.softPct.Load(), g.hardPct.Load()
	if soft <= 0 || hard <= 0 {
		soft, hard = defaultSoftPct, defaultHardPct
	}
	used := g.used.Load()
	// used*100 cannot overflow for realistic byte counts (<2^56).
	switch {
	case used*100 >= limit*hard:
		return LevelHard
	case used*100 >= limit*soft:
		return LevelSoft
	}
	return LevelOK
}

// Snapshot is a point-in-time copy of the governor's accounting,
// for metrics rendering.
type Snapshot struct {
	Limit   int64
	Used    int64
	Level   Level
	ByClass [4]int64 // indexed by Class
}

// Snapshot returns a consistent-enough copy for metrics (individual
// loads are atomic; the set is not a single linearization point,
// which is fine for gauges).
func (g *Governor) Snapshot() Snapshot {
	if g == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Limit: g.limit.Load(),
		Used:  g.used.Load(),
		Level: g.Level(),
	}
	for i := range s.ByClass {
		s.ByClass[i] = g.byClass[i].Load()
	}
	return s
}

// process is the package-level default governor: unlimited until
// someone calls Process().SetLimit.
var process = New(0)

// Process returns the process-wide default Governor. Subsystems that
// are not handed an explicit governor account here, so a single
// SetLimit call governs the whole process.
func Process() *Governor { return process }
