package listrank

import "listrank/internal/govern"

// Governor is the process-wide memory governor: a single accounting
// point for reorder-cache layouts, the segment arenas of segmented
// requests in service, out-of-core mmap windows and pooled wire
// buffers, with a derived pressure level (ok/soft/hard) that the
// serving layer reads at admission. It is an alias for the internal
// implementation so callers outside this module can construct and
// share one.
//
// Policy at each level:
//   - GovernOK: full function.
//   - GovernSoft: the Server stops building new reorder layouts and
//     stops auto-segmenting; existing layouts keep serving.
//   - GovernHard: the Server sheds new load outright (ErrShed).
type Governor = govern.Governor

// GovernorSnapshot is a point-in-time copy of a Governor's
// accounting, for metrics.
type GovernorSnapshot = govern.Snapshot

// Pressure levels reported by (*Governor).Level.
const (
	GovernOK   = govern.LevelOK
	GovernSoft = govern.LevelSoft
	GovernHard = govern.LevelHard
)

// NewGovernor returns a Governor with the given byte limit.
// limit <= 0 means unlimited: accounting still happens, but the
// pressure level is always GovernOK.
func NewGovernor(limit int64) *Governor { return govern.New(limit) }

// ProcessGovernor returns the process-wide default Governor that
// subsystems use when not handed an explicit one. Setting a limit on
// it governs every Server and OutOfCoreList in the process that did
// not override ServerOptions.Governor / OutOfCoreOptions.Governor.
func ProcessGovernor() *Governor { return govern.Process() }
