package listrank

import (
	"listrank/internal/govern"
	"listrank/internal/segment"
)

// Segmented service: a bare-List request with Request.Segments > 1 (or
// one crossing ServerOptions.AutoSegment) is admitted, queued and
// routed like any other request, and the shard that takes it serves it
// on the in-core segmented engine (internal/segment) instead of the
// sublist engine — on the shard's pool, at the parallelism the shard
// serves it with, under the ticket's cancellation token. Backpressure,
// deadline shedding, queue expiry and panic containment therefore
// apply to it exactly as to every other request.

// maxAutoSegments caps how many segments auto-splitting creates; an
// explicit Request.Segments is clamped only by the list length.
const maxAutoSegments = 64

// resolveSegments turns a request's explicit segment count and the
// server's auto-split threshold into the effective S (≤ 1 means
// monolithic service). It is read when the request is served, so the
// governor's pressure at that moment decides auto-splitting.
func (s *Server) resolveSegments(explicit, n int) int {
	S := explicit
	if S == 0 && s.autoSegment > 0 && n > s.autoSegment {
		// Auto-segmentation is optional memory growth (a segment arena
		// per request); under governor pressure serve monolithic
		// instead. An explicit Request.Segments is still honored — the
		// caller asked for the segmented result shape.
		if s.gov.Level() >= govern.LevelSoft {
			return 1
		}
		S = (n + s.autoSegment - 1) / s.autoSegment
		if S > maxAutoSegments {
			S = maxAutoSegments
		}
	}
	if S > n {
		S = n
	}
	return S
}

// runSegmented serves t's bare-List request on the segmented engine,
// cut into S segments, with procs workers on the shard's pool. The
// segment arena's footprint counts as ClassSegment from Prepare to
// completion, so the governor sees segmented traffic's real memory
// (the pressure that in turn gates auto-segmentation).
func (sh *shard) runSegmented(t *Ticket, S, procs int) {
	s, req := t.srv, &t.req
	l := req.List
	n := l.Len()
	mode := segment.ModeRank
	switch req.Op {
	case OpScan:
		mode = segment.ModeScan
	case OpScanOp:
		mode = segment.ModeOp
	}
	var value []int64
	if mode != segment.ModeRank {
		value = l.Value // admit checked its length
	}
	s.segmented.Add(1)
	sc := getSegScratch()
	defer putSegScratch(sc)
	defer sc.Release()
	sc.SetPool(sh.pool)
	defer sc.SetPool(nil)
	opt := segment.Options{Procs: procs, Seed: req.Opt.Seed, Cancel: &t.cancel}
	// Prepare range-checks links and assembles the boundary nodes; a
	// list that is not one chain panics list.ErrNotList here or in
	// Solve, and the serve's finish contains either into ErrPanic.
	sc.Prepare(l.Next, l.Head, sc.EvenPlan(n, S), opt)
	fp := sc.Footprint()
	s.gov.Adjust(govern.ClassSegment, fp)
	defer s.gov.Adjust(govern.ClassSegment, -fp)
	sc.Solve(req.Dst, value, l.Head, mode, req.ScanOp, req.Identity, opt)
}
