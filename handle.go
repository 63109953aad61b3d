package listrank

import (
	"sync"
	"sync/atomic"

	"listrank/internal/arena"
	"listrank/internal/fleet"
	"listrank/internal/govern"
	"listrank/internal/kernel"
)

// This file is the reorder cache: the serving layer's answer to
// repeat traffic. The paper's §2 observation is that a rank IS the
// permutation that reorders a linked list into an array in one step —
// after which every traversal of that list is a streaming sweep
// instead of a chain of dependent cache misses. A Handle gives a list
// identity across requests, and each shard keeps an LRU-bounded cache
// of reordered layouts: after a handle's ReorderAfter-th serve within
// a version, the shard pays one amortized re-layout (rank + scatter),
// and every subsequent request on that handle runs the sequential
// kernels in internal/kernel/seq.go — rank degenerates to a memcpy of
// the cached rank table, scans to one streaming pass over the values
// in list order scattered back through the cached permutation. The
// warm hit path allocates nothing and never touches the list, so hits
// on one handle proceed concurrently while another handle's cold
// request occupies an engine.
//
// Invalidation is by version: Handle.Invalidate bumps the version and
// detaches any cached layout before returning, so a request submitted
// after Invalidate returns can never be served from the stale layout
// (an in-flight build for the old version is discarded at publish
// time). Layout storage is arena-backed and FreeList-recycled, and
// each shard's cache is bounded by its share of
// ServerOptions.ReorderBudgetBytes with least-recently-used eviction.

// Handle is a list registered with a Server — the "list the Server
// remembers across requests". Submit a Request with Handle set (and
// List nil) to serve against it; repeat traffic on the same handle
// becomes eligible for the reorder cache. The engines only read the
// registered list, so any number of requests on one handle may be in
// flight at once, but the caller must not mutate the list while any
// are. To mutate it between requests, quiesce the handle (no requests
// in flight), mutate, then call Invalidate before submitting again.
type Handle struct {
	srv  *Server
	sh   *shard
	list *List
	n    int

	// version counts Invalidate calls; a cached layout is live only
	// while its recorded version matches.
	version atomic.Uint64

	// mu guards hits/hitsVer, which count cold serves within the
	// current version toward the reorder threshold, and the layout
	// build that crossing it triggers (maybeBuild). The serves
	// themselves run outside it, so cold serves on one handle proceed
	// concurrently; warm hits never take it.
	mu      sync.Mutex
	hits    int
	hitsVer uint64

	// layout is the cached reordered layout, nil when cold. Guarded by
	// the shard cache mutex, not mu.
	layout *layout
}

// Len returns the length of the registered list.
func (h *Handle) Len() int { return h.n }

// Invalidate marks the handle's list as changed: the version is
// bumped and any cached layout is detached before Invalidate returns,
// so no request submitted afterwards can be served from it. Call it
// after mutating the registered list (with the handle quiescent — see
// Handle). Invalidate is safe to call at any time, from any
// goroutine, and is cheap when nothing is cached.
func (h *Handle) Invalidate() {
	h.version.Add(1)
	if h.sh != nil {
		h.sh.cache.invalidate(h)
	}
}

// Register registers a list with the server and returns its handle.
// The handle routes to the shard matching the list's size, fixed at
// registration — lists must not change length. Registration itself
// costs nothing; the reorder cache only spends memory on handles
// whose traffic repeats.
func (s *Server) Register(l *List) *Handle {
	h := &Handle{srv: s, list: l, n: l.Len()}
	if h.n > 0 {
		h.sh = s.shards[s.bins.Index(h.n)]
	}
	return h
}

// layout is one cached re-layout: the rank table (vertex → position;
// the complete OpRank answer), the permutation (position → vertex),
// and the values gathered into list order. All three are immutable
// once published, so warm hits read them without the handle lock;
// lifetime is refcounted under the shard cache mutex so eviction or
// invalidation never frees storage out from under an in-flight hit.
type layout struct {
	h       *Handle
	version uint64
	rank    []int64 // rank[v] = position of vertex v
	perm    []int64 // perm[r] = vertex at position r
	seq     []int64 // seq[r]  = value of the vertex at position r
	bytes   int64

	// refs counts users: 1 for the cache itself while attached, +1 per
	// in-flight warm hit. detached marks a layout dropped from the
	// cache (eviction or invalidation) that is waiting for its last
	// reader before recycling. Both guarded by the cache mutex.
	refs     int
	detached bool

	// Intrusive LRU links (front = most recently used), guarded by the
	// cache mutex.
	lruPrev, lruNext *layout
}

// reorderCache is one shard's cache of reordered layouts.
type reorderCache struct {
	// after is the serve count within a version that triggers a
	// build; 0 disables the cache. budget bounds the summed bytes of
	// attached layouts. gov is the server's memory governor: attached
	// layout bytes are accounted as ClassReorder, and a governor at
	// soft pressure or worse vetoes new builds.
	after  int
	budget int64
	gov    *govern.Governor

	mu         sync.Mutex
	bytes      int64
	head, tail *layout // LRU list of attached layouts
	free       fleet.FreeList[*layout]

	hits, misses, builds, evictions atomic.Int64
}

func (rc *reorderCache) init(after int, budget int64, gov *govern.Governor) {
	rc.after = after
	rc.budget = budget
	rc.gov = gov
	rc.free.New = func() *layout { return &layout{} }
}

// enabled reports whether this shard caches at all.
func (rc *reorderCache) enabled() bool { return rc.after > 0 && rc.budget > 0 }

// acquire returns the handle's layout with a reader reference, or nil
// when the handle has no live layout for its current version. The
// caller must release exactly once.
func (rc *reorderCache) acquire(h *Handle) *layout {
	rc.mu.Lock()
	lay := h.layout
	if lay == nil || lay.version != h.version.Load() {
		rc.mu.Unlock()
		return nil
	}
	lay.refs++
	rc.moveFront(lay)
	rc.mu.Unlock()
	return lay
}

// release drops a reader reference; the last reader of a detached
// layout recycles its storage.
func (rc *reorderCache) release(lay *layout) {
	rc.mu.Lock()
	lay.refs--
	if lay.refs == 0 && lay.detached {
		rc.recycleLocked(lay)
	}
	rc.mu.Unlock()
}

// publish attaches a freshly built layout to its handle, unless the
// handle was invalidated since the build started (version mismatch)
// or a layout raced in — then the build is discarded. On success the
// cache evicts least-recently-used layouts until back under budget.
func (rc *reorderCache) publish(h *Handle, lay *layout, ver uint64) bool {
	rc.mu.Lock()
	if h.version.Load() != ver || h.layout != nil {
		rc.recycleLocked(lay)
		rc.mu.Unlock()
		return false
	}
	h.layout = lay
	lay.refs = 1
	lay.detached = false
	rc.bytes += lay.bytes
	rc.gov.Adjust(govern.ClassReorder, lay.bytes)
	rc.pushFront(lay)
	for rc.bytes > rc.budget && rc.tail != nil && rc.tail != lay {
		victim := rc.tail
		rc.detachLocked(victim)
		rc.evictions.Add(1)
	}
	rc.mu.Unlock()
	return true
}

// purge detaches every attached layout. Server.Close calls it after
// the dispatchers stop, so a closed server's governor accounting
// (ClassReorder) returns to zero and the process-wide pressure level
// reflects only live servers.
func (rc *reorderCache) purge() {
	rc.mu.Lock()
	for rc.head != nil {
		rc.detachLocked(rc.head)
	}
	rc.mu.Unlock()
}

// invalidate detaches the handle's layout, if any. The version bump
// in Handle.Invalidate happens first, so an acquire racing with this
// call either sees the detached state or fails the version check.
func (rc *reorderCache) invalidate(h *Handle) {
	rc.mu.Lock()
	if lay := h.layout; lay != nil {
		rc.detachLocked(lay)
	}
	rc.mu.Unlock()
}

// detachLocked drops a layout from the cache: LRU unlink, budget
// release, and the cache's own reference. In-flight readers keep the
// storage alive; the last one recycles it.
func (rc *reorderCache) detachLocked(lay *layout) {
	rc.unlink(lay)
	rc.bytes -= lay.bytes
	rc.gov.Adjust(govern.ClassReorder, -lay.bytes)
	lay.h.layout = nil
	lay.detached = true
	lay.refs--
	if lay.refs == 0 {
		rc.recycleLocked(lay)
	}
}

// recycleLocked returns a dead layout's storage to the free list for
// the next build of a similar size.
func (rc *reorderCache) recycleLocked(lay *layout) {
	lay.h = nil
	lay.detached = false
	lay.refs = 0
	rc.free.Put(lay)
}

func (rc *reorderCache) pushFront(lay *layout) {
	lay.lruPrev = nil
	lay.lruNext = rc.head
	if rc.head != nil {
		rc.head.lruPrev = lay
	}
	rc.head = lay
	if rc.tail == nil {
		rc.tail = lay
	}
}

func (rc *reorderCache) unlink(lay *layout) {
	if lay.lruPrev != nil {
		lay.lruPrev.lruNext = lay.lruNext
	} else {
		rc.head = lay.lruNext
	}
	if lay.lruNext != nil {
		lay.lruNext.lruPrev = lay.lruPrev
	} else {
		rc.tail = lay.lruPrev
	}
	lay.lruPrev, lay.lruNext = nil, nil
}

func (rc *reorderCache) moveFront(lay *layout) {
	if rc.head == lay {
		return
	}
	rc.unlink(lay)
	rc.pushFront(lay)
}

// runHandle serves one handle request: the warm path runs the
// sequential kernels against the immutable cached layout (zero
// allocations, no engine, no handle lock); the cold path serves with
// the lane kernels exactly like an anonymous request, concurrently
// with other cold serves on the handle, and then counts the serve
// toward the reorder threshold under the handle lock.
func (sh *shard) runHandle(t *Ticket, e *Engine, procs int) {
	req := &t.req
	h := req.Handle
	if req.Dst == nil {
		req.Dst = make([]int64, h.n)
	}
	rc := &sh.cache
	if rc.enabled() {
		if lay := rc.acquire(h); lay != nil {
			defer rc.release(lay)
			rc.hits.Add(1)
			switch req.Op {
			case OpScan:
				kernel.SeqScanAdd(req.Dst, lay.seq, lay.perm)
			case OpScanOp:
				kernel.SeqScanOp(req.Dst, lay.seq, lay.perm, req.ScanOp, req.Identity)
			default:
				copy(req.Dst, lay.rank)
			}
			return
		}
		rc.misses.Add(1)
	}
	if sh.validate {
		if err := sh.checkList(h.list, procs); err != nil {
			t.err = err
			return
		}
	}
	opt := req.Opt
	opt.Procs = procs
	opt.cancel = &t.cancel
	switch req.Op {
	case OpScan:
		e.ScanInto(req.Dst, h.list, opt)
	case OpScanOp:
		e.ScanOpInto(req.Dst, h.list, req.ScanOp, req.Identity, opt)
	default:
		e.RankInto(req.Dst, h.list, opt)
	}
	if rc.enabled() {
		h.mu.Lock()
		defer h.mu.Unlock()
		sh.maybeBuild(h, e, procs, req)
	}
}

// maybeBuild runs after a successful cold serve, holding the handle
// lock: it counts the serve toward the current version's threshold
// and, on crossing it, builds the reordered layout — one rank (reused
// from the request when it was a rank), a permutation inversion, and
// a value gather — then publishes it unless the version moved. The
// build carries no cancellation token: it is the server's amortized
// investment, not work chargeable to the triggering request, and it
// is bounded by one rank of a list the engine just ranked.
func (sh *shard) maybeBuild(h *Handle, e *Engine, procs int, req *Request) {
	rc := &sh.cache
	ver := h.version.Load()
	if h.hitsVer != ver {
		h.hitsVer = ver
		h.hits = 0
	}
	h.hits++
	if h.hits < rc.after {
		return
	}
	// Under memory pressure a build is exactly the optional growth to
	// skip: the cold path already served the request correctly, and
	// the serve count keeps accruing, so the build happens on the
	// first post-pressure serve instead.
	if rc.gov.Level() >= govern.LevelSoft {
		return
	}
	n := h.n
	if int64(24*n) > rc.budget {
		return // would evict the whole cache and still not fit
	}
	lay := rc.free.Get()
	lay.rank = arena.Grow(lay.rank, n)
	lay.perm = arena.Grow(lay.perm, n)
	lay.seq = arena.Grow(lay.seq, n)
	if req.Op == OpRank {
		copy(lay.rank, req.Dst)
	} else {
		bopt := req.Opt
		bopt.Procs = procs
		bopt.cancel = nil
		e.RankInto(lay.rank, h.list, bopt)
	}
	kernel.SeqRank(lay.perm, lay.rank) // invert: rank table → position → vertex
	vals := h.list.Value
	for r, p := range lay.perm {
		lay.seq[r] = vals[p]
	}
	lay.bytes = int64(24 * n)
	lay.version = ver
	lay.h = h
	if rc.publish(h, lay, ver) {
		rc.builds.Add(1)
	}
}
