package listrank

// This file provides the batch entry points for pools of independent
// lists. The paper's central premise — machines run problems much
// larger than their processor counts, so work and constants dominate
// (§1) — has a common special case: many medium lists rather than one
// enormous one (adjacency rings of a graph's vertices, per-document
// chains, per-shard free lists). For that regime the right schedule
// is the trivial one: parallelize *across* lists with the cheapest
// per-list algorithm, not within each list with the cleverest, because
// across-list parallelism has no contraction overhead at all.
//
// The batch functions ride the serving layer: every list is submitted
// to the process-wide SharedServer, whose size-binned shards make the
// regime choice per list rather than per batch — small lists coalesce
// into across-list dispatches on warm engines (each shard worker
// serves its share of the batch inline on its own engine), while
// lists in the unbounded top bin are served one at a time with
// within-list parallelism. A mixed batch therefore gets both
// schedules at once, which the old all-or-nothing width check
// (across-list iff len(pool) ≥ procs) could not express, and the
// working space is the fleet's warm arenas rather than per-call
// engine checkout.

// RankAll ranks every list in the pool and returns one result slice
// per list. The lists are served concurrently by the shared server's
// size-binned fleet: small lists are coalesced into batch dispatches
// with across-list parallelism, large lists run with within-list
// parallelism on their shard's worker pool. Results are identical to
// per-list RankWith calls. Opt's Algorithm, Seed, M and LaneWidth
// apply to every list; Procs is owned by the fleet (see Request.Opt).
// The pool's entries must be distinct lists: the whole batch is in
// flight at once, and an in-flight list must not be shared (see
// Request.List).
func RankAll(pool []*List, opt Options) [][]int64 {
	return batchAll(pool, opt, OpRank)
}

// ScanAll is RankAll for the exclusive integer-addition scan.
func ScanAll(pool []*List, opt Options) [][]int64 {
	return batchAll(pool, opt, OpScan)
}

func batchAll(pool []*List, opt Options, op Op) [][]int64 {
	out := make([][]int64, len(pool))
	if len(pool) == 0 {
		return out
	}
	s := SharedServer()
	tickets := make([]*Ticket, len(pool))
	for i, l := range pool {
		out[i] = make([]int64, l.Len())
		tickets[i] = s.Submit(Request{Op: op, List: l, Dst: out[i], Opt: opt})
	}
	// Wait every ticket before reporting a failure: panicking with
	// requests still in flight would leave the fleet writing the
	// caller's result slices during the unwind.
	var firstErr error
	for _, t := range tickets {
		if _, err := t.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		// The shared server blocks rather than rejects and is never
		// closed, so the only error that can surface here is a
		// serve-time fault captured into the ticket — e.g. a list
		// violating List's invariants, reported as an ErrPanic-wrapped
		// error. Re-panic the error itself: recover sites keep the
		// original message and can still classify it with
		// errors.Is(err, ErrPanic), which the old re-panic of
		// firstErr.Error() as a bare string destroyed.
		panic(firstErr)
	}
	return out
}
