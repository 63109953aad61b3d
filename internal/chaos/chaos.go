// Package chaos is the fault-injection harness behind the serving
// layer's crash-safety tests. Production code calls Point at
// interesting places — pool worker bodies, the engine's phase
// boundaries, kernel chunk strips — and a chaos-enabled build
// (`go test -tags chaos`) can arm those points to panic or stall,
// driving the soak test that proves the submit→serve→recycle cycle
// contains faults instead of deadlocking or crashing (no strand is
// ever more than one contained panic away from a served ticket).
//
// Without the `chaos` build tag every hook in this package compiles to
// an empty, inlinable function, so the hooks cost nothing in
// production binaries — the same discipline as the kernel package's
// bounds-check accounting: the safety machinery must not tax the
// steady state it protects.
//
// The four fault families the harness covers:
//
//   - corrupt-a-link: driven by the soak test's traffic (a request
//     whose succ array holds an out-of-range link), exercising the
//     kernel guard → worker recover → dispatch slot → ticket error
//     containment chain. No hook needed; the input is the fault.
//   - delay-a-worker: ArmDelay on the "par.worker" point stalls pool
//     workers, exercising slow-worker barrier and coalescing paths.
//   - panic-at-phase-K: ArmPanic on a "core.phaseK" point panics the
//     engine mid-run, exercising orchestrator-level containment and
//     the unwind of a half-finished run.
//   - queue-full bursts: driven by the soak test's open-throttle
//     submission against a small admission queue. No hook needed.
package chaos

// Names of the hook points compiled into the runtime and engine, for
// use with ArmPanic / ArmDelay. Keeping them in one place (and in the
// untagged file) lets chaos tests reference them without stringly
// drift, and documents where the fault surface is.
const (
	// PointWorker fires in every pool/spawn fan-out worker body, once
	// per dispatch per worker (internal/par).
	PointWorker = "par.worker"
	// PointPhase1, PointPhase2, PointPhase3 fire on the orchestrating
	// goroutine at the engine's phase boundaries (internal/core).
	PointPhase1 = "core.phase1"
	PointPhase2 = "core.phase2"
	PointPhase3 = "core.phase3"
	// PointChunk fires between kernel chunk strips on whatever worker
	// is chasing that strip — faults here surface through the worker
	// containment path rather than the orchestrator's (internal/core).
	PointChunk = "core.chunk"
)

// Fault is the value an armed panic point panics with. Keeping a
// dedicated type lets containment tests assert the injected fault —
// and nothing else — reached the recover site.
type Fault struct {
	// Point is the hook point that fired.
	Point string
}

// Error makes an injected fault classifiable through the usual error
// chain once containment wraps it.
func (f Fault) Error() string { return "chaos: injected fault at " + f.Point }
