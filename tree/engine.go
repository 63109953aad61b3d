package tree

import (
	"errors"
	"fmt"

	"listrank"
	"listrank/internal/arena"
	"listrank/internal/fleet"
	"listrank/internal/list"
)

// Engine is a reusable working-space arena for the tree algorithms,
// the application-layer counterpart of listrank.Engine: it owns the
// rake-contraction state (the mutable topology, pending linear
// functions and live-leaf list behind Expr evaluation), the
// Euler-circuit buffers behind rooting, and the tour-scan destinations
// behind the statistics and LCA builds — and it embeds a
// listrank.Engine of its own, so a stream of tree problems never
// touches the global rank/scan pool and, once warm, never touches the
// heap. The paper's closing question (§7) asks whether a fast
// list-ranking implementation helps the pointer-based applications
// built on it; the answer is only honest if the applications pay the
// same constant-factor discipline the ranking core does, which is what
// this arena restores.
//
// An Engine may be reused across trees of any size and any Options,
// growing its buffers geometrically to the largest problem seen. It
// must not be used concurrently; for concurrent callers either hold
// one Engine per goroutine or use the package-level functions
// (Expr.Eval, Expr.EvalAll, RootAt, Tree.LCA, ...), which draw engines
// from an internal pool.
//
// Zero-allocation steady state holds for Eval, EvalAllInto and
// RootAtInto once the arena is warm: multi-worker phases dispatch
// closure-free onto resident worker-pool workers instead of spawning
// goroutines per rake round. At Procs > 1 this requires a pool at
// least Procs wide with no competing dispatcher (an engine-owned pool
// via SetPool always qualifies; an undersized or contended pool
// degrades fan-outs to spawn-per-call — allocations, not errors).
//
// No entry point walks a tour to check it: on input that is not a
// single tree the rank refuses the tour, the entry point returns an
// error wrapping the refusal, and the engine stays usable.
type Engine struct {
	lr *listrank.Engine

	// pool is the resident worker pool every fan-out dispatches on;
	// nil selects the process-wide shared pool. The embedded listrank
	// engine dispatches on the same pool.
	pool *listrank.WorkerPool

	// call stashes the per-dispatch arguments read by the named pool
	// task functions (task* below): pool bodies must be closure-free
	// to keep the steady state allocation-free, so each fan-out site
	// writes its varying arguments here and passes the Engine itself
	// as the dispatch context. Caller-owned references are dropped on
	// return from the exported entry points.
	call struct {
		e      *Expr
		phase  int
		live   []int32
		dst    []int64
		base   int
		parent []int
	}

	// Rake-contraction working set (Eval / EvalAllInto): mutable
	// topology, pending linear functions f(x) = fa·x + fb, parent
	// slots, the packed live-leaf list and per-leaf rake marks.
	left, right, parent []int32
	fa, fb              []int64
	side                []int8
	live                []int32
	raked               []bool

	// EvalAll rake log grouped by phase, plus per-worker staging for
	// the parallel recording passes.
	log         []rakeRec
	groupStarts []int
	recs        [][]rakeRec

	// Rooting buffers (RootAtInto): twin-arc arrays, adjacency rings,
	// and the Euler circuit with its ranks.
	tail, head, incident, ringPos, fill []int32
	start                               []int32
	next, value, ranks                  []int64

	// pfx is the destination for tour scans (leaf numbering, vertex
	// depths); il is the reused list header that keeps tour views off
	// the heap.
	pfx []int64
	il  listrank.List
}

// NewEngine returns an empty engine; buffers are allocated lazily and
// amortized across calls.
func NewEngine() *Engine { return &Engine{} }

// lrEngine returns the embedded listrank engine, creating it on first
// use so the zero value of Engine is fully usable. It dispatches on
// the same worker pool as this engine.
func (en *Engine) lrEngine() *listrank.Engine {
	if en.lr == nil {
		en.lr = listrank.NewEngine()
		en.lr.SetPool(en.pool)
	}
	return en.lr
}

// SetPool selects the worker pool this engine (and its embedded
// listrank engine) dispatches parallel phases on; nil (the default)
// selects the process-wide shared pool. The engine never closes the
// pool.
func (en *Engine) SetPool(pl *listrank.WorkerPool) {
	en.pool = pl
	if en.lr != nil {
		en.lr.SetPool(pl)
	}
}

// fanout returns the pool every parallel phase dispatches on.
func (en *Engine) fanout() *listrank.WorkerPool {
	if en.pool != nil {
		return en.pool
	}
	return listrank.SharedWorkerPool()
}

// releaseCall drops the fan-out stash's references to caller-owned
// storage so a held or pooled engine never keeps a finished problem
// alive.
func (en *Engine) releaseCall() {
	en.call.e, en.call.live = nil, nil
	en.call.dst, en.call.parent = nil, nil
}

// refused is deferred around every rank or scan of a tour. It recovers
// the rank's refusal — list.ErrNotList, or a fan-out's *par.WorkerPanic
// wrapping it — into *err, prefixed with what; every other panic
// propagates. A tour is a permutation cut at the root, so no element
// has two predecessors and the Procs > 1 record race cannot arise.
func refused(err *error, what string) {
	r := recover()
	if r == nil {
		return
	}
	if e, ok := r.(error); ok && errors.Is(e, list.ErrNotList) {
		*err = fmt.Errorf("%s: %w", what, e)
		return
	}
	panic(r)
}

// engineFleet backs the package-level entry points: Expr.Eval,
// Expr.EvalAll, GeneralExpr.Eval and EvalAll, RootAt, Tree.LCA and the
// tour statistics all borrow a warm engine per call, so callers that
// never construct an Engine still amortize working-space allocation
// across calls. Engines are
// checked out by problem size from a size-binned fleet pool — the
// same discipline as the listrank serving layer — so a 30-node
// expression never borrows (and pins) an arena warmed on a
// million-node tree, and a huge tree never grow-thrashes an arena
// that has only seen small ones. Unlike a sync.Pool the fleet retains
// its engines across GCs: warm working space is the point.
var engineFleet = fleet.NewPool(nil, NewEngine)

func getEngine(n int) *Engine    { return engineFleet.Checkout(n) }
func putEngine(n int, e *Engine) { engineFleet.Checkin(n, e) }

// --- Rake contraction -------------------------------------------------

// prepContract loads e's topology into the engine's mutable
// contraction state: per-node identity functions, parent links and
// child-slot sides, and the packed live-leaf list.
func (en *Engine) prepContract(e *Expr) {
	n := e.n
	en.left = arena.Grow(en.left, n)
	en.right = arena.Grow(en.right, n)
	en.parent = arena.Grow(en.parent, n)
	en.fa = arena.Grow(en.fa, n)
	en.fb = arena.Grow(en.fb, n)
	en.side = arena.Grow(en.side, n)
	en.raked = arena.Zeroed(en.raked, n)
	copy(en.left, e.left)
	copy(en.right, e.right)
	en.parent[e.root] = -1
	for v := 0; v < n; v++ {
		en.fa[v], en.fb[v] = 1, 0
		if en.left[v] != -1 {
			// Both child slots are written explicitly (the backing
			// array may hold a previous problem's sides).
			en.parent[en.left[v]] = int32(v)
			en.parent[en.right[v]] = int32(v)
			en.side[en.left[v]] = 0
			en.side[en.right[v]] = 1
		}
	}
	en.live = arena.Grow(en.live, len(e.leaves))
	copy(en.live, e.leaves)
}

// Eval evaluates the expression by parallel rake contraction using the
// engine's working space; see Expr.Eval for the algorithm. The tree
// itself is not modified, so Eval is repeatable. stats may be nil.
func (en *Engine) Eval(e *Expr, stats *ContractStats) int64 {
	if e.n == 1 {
		return e.leafVal[e.root]
	}
	en.prepContract(e)
	return en.contract(e, e.opt.Procs, stats)
}

// contract runs the rake rounds on procs workers from the state
// prepContract loaded, whatever pending functions it then holds, and
// returns the root's value.
func (en *Engine) contract(e *Expr, procs int, stats *ContractStats) int64 {
	defer en.releaseCall()
	if procs < 1 {
		procs = 1
	}
	live := en.live
	rounds, rakes := 0, 0
	for len(live) > 2 {
		for phase := 0; phase < 2; phase++ {
			// Odd positions only: adjacent leaves are never both
			// raked, which (with the left/right phase split) makes
			// every write single-writer — see the Expr type comment.
			half := len(live) / 2
			if procs == 1 {
				en.rakeChunk(e, phase, live, 0, half)
			} else {
				en.rakeParallel(e, phase, live, half, procs)
			}
		}
		// Compress the leaf order, keeping survivors in place.
		kept := 0
		for _, v := range live {
			if !en.raked[v] {
				live[kept] = v
				kept++
			}
		}
		rakes += len(live) - kept
		live = live[:kept]
		rounds++
	}
	if stats != nil {
		stats.Rounds = rounds
		stats.Rakes = rakes
	}

	// Two leaves remain, so exactly one internal node — the root —
	// remains above them.
	l, r := en.left[e.root], en.right[e.root]
	va := en.fa[l]*e.leafVal[l] + en.fb[l]
	vb := en.fa[r]*e.leafVal[r] + en.fb[r]
	if e.ops[e.root] == OpAdd {
		return va + vb
	}
	return va * vb
}

// rakeChunk rakes the odd-position leaves live[2i+1], i in [lo, hi),
// matching the current phase. Writes are single-writer by the
// odd/left-right discipline (see the Expr type comment).
func (en *Engine) rakeChunk(e *Expr, phase int, live []int32, lo, hi int) {
	left, right, parent := en.left, en.right, en.parent
	fa, fb, side, raked := en.fa, en.fb, en.side, en.raked
	for i := lo; i < hi; i++ {
		v := live[2*i+1]
		p := parent[v]
		if p == e.root || raked[v] {
			continue
		}
		isLeft := side[v] == 0
		if (phase == 0) != isLeft {
			continue
		}
		var s int32
		if isLeft {
			s = right[p]
		} else {
			s = left[p]
		}
		// A = f_v(leaf constant); fold through p's op and p's pending
		// function into s.
		a := fa[v]*e.leafVal[v] + fb[v]
		if e.ops[p] == OpAdd {
			fb[s] = fa[p]*(a+fb[s]) + fb[p]
			fa[s] = fa[p] * fa[s]
		} else {
			fb[s] = fa[p]*a*fb[s] + fb[p]
			fa[s] = fa[p] * a * fa[s]
		}
		// s replaces p under p's parent; the slot is written by
		// side[p], never read-then-written (see Expr type comment).
		gp := parent[p]
		parent[s] = gp
		if side[p] == 0 {
			left[gp] = s
		} else {
			right[gp] = s
		}
		side[s] = side[p]
		raked[v] = true
	}
}

// rakeParallel fans rakeChunk out onto the resident pool workers
// through a closure-free task body, so the procs > 1 rounds allocate
// nothing: the varying arguments travel through the call stash.
func (en *Engine) rakeParallel(e *Expr, phase int, live []int32, half, procs int) {
	en.call.e, en.call.phase, en.call.live = e, phase, live
	en.fanout().ForChunksCtx(half, procs, en, taskRake)
}

func taskRake(c any, _, lo, hi int) {
	en := c.(*Engine)
	en.rakeChunk(en.call.e, en.call.phase, en.call.live, lo, hi)
}

// EvalAllInto writes the value of every node's subtree into dst, which
// must have length e.Len() — the allocation-free counterpart of
// Expr.EvalAll (see there for the contract/expand argument). Result
// storage is the caller's and working space — including the rake log —
// is the engine's.
func (en *Engine) EvalAllInto(dst []int64, e *Expr, stats *ContractStats) {
	if len(dst) != e.n {
		panic(fmt.Sprintf("tree: EvalAllInto: len(dst) = %d, want node count %d", len(dst), e.n))
	}
	if e.n == 1 {
		dst[e.root] = e.leafVal[e.root]
		return
	}
	en.prepContract(e)
	en.contractAll(dst, e, e.opt.Procs, stats)
}

// contractAll is contract with the rake log and its reverse replay,
// writing every node's subtree value into dst.
func (en *Engine) contractAll(dst []int64, e *Expr, procs int, stats *ContractStats) {
	defer en.releaseCall()
	if procs < 1 {
		procs = 1
	}
	for v := 0; v < e.n; v++ {
		if en.left[v] == -1 {
			dst[v] = e.leafVal[v]
		}
	}
	live := en.live
	// The rake log, grouped by *phase*: a phase's rakes are mutually
	// independent (the odd/left-right discipline), so each group can
	// replay in parallel; groups replay in reverse order. Grouping by
	// whole rounds would be wrong — a phase-1 rake's parent can be a
	// phase-0 rake's recorded sibling in the same round, and the
	// reverse replay must fill the parent in first.
	en.log = en.log[:0]
	en.groupStarts = en.groupStarts[:0]
	rounds, rakes := 0, 0

	for len(live) > 2 {
		for phase := 0; phase < 2; phase++ {
			en.groupStarts = append(en.groupStarts, len(en.log))
			half := len(live) / 2
			if procs == 1 {
				en.log = en.rakeLogChunk(e, phase, live, en.log, 0, half)
			} else {
				en.rakeLogParallel(e, phase, live, half, procs)
			}
		}
		kept := 0
		for _, v := range live {
			if !en.raked[v] {
				live[kept] = v
				kept++
			}
		}
		rakes += len(live) - kept
		live = live[:kept]
		rounds++
	}
	if stats != nil {
		stats.Rounds = rounds
		stats.Rakes = rakes
	}

	// Solve the 3-node remainder.
	l, r := en.left[e.root], en.right[e.root]
	va := en.fa[l]*e.leafVal[l] + en.fb[l]
	vb := en.fa[r]*e.leafVal[r] + en.fb[r]
	if e.ops[e.root] == OpAdd {
		dst[e.root] = va + vb
	} else {
		dst[e.root] = va * vb
	}

	// Expansion: replay the phase groups in reverse; entries within a
	// group touch distinct parents and every sibling value they read
	// is already final (the sibling either survived to the end, is a
	// leaf, or was the parent of a strictly later — already replayed —
	// rake).
	en.groupStarts = append(en.groupStarts, len(en.log))
	for i := len(en.groupStarts) - 2; i >= 0; i-- {
		lo, hi := en.groupStarts[i], en.groupStarts[i+1]
		if procs == 1 {
			en.expandChunk(dst, e, lo, 0, hi-lo)
		} else {
			en.expandParallel(dst, e, lo, hi-lo, procs)
		}
	}
}

// rakeLogChunk is rakeChunk with each rake recorded (the leaf's value
// through its pending function, and the sibling's pre-mutation
// pending function) into buf.
func (en *Engine) rakeLogChunk(e *Expr, phase int, live []int32, buf []rakeRec, lo, hi int) []rakeRec {
	left, right, parent := en.left, en.right, en.parent
	fa, fb, side, raked := en.fa, en.fb, en.side, en.raked
	for i := lo; i < hi; i++ {
		v := live[2*i+1]
		p := parent[v]
		if p == e.root || raked[v] {
			continue
		}
		isLeft := side[v] == 0
		if (phase == 0) != isLeft {
			continue
		}
		var s int32
		if isLeft {
			s = right[p]
		} else {
			s = left[p]
		}
		a := fa[v]*e.leafVal[v] + fb[v]
		buf = append(buf, rakeRec{p: p, s: s, a: a, sa: fa[s], sb: fb[s]})
		if e.ops[p] == OpAdd {
			fb[s] = fa[p]*(a+fb[s]) + fb[p]
			fa[s] = fa[p] * fa[s]
		} else {
			fb[s] = fa[p]*a*fb[s] + fb[p]
			fa[s] = fa[p] * a * fa[s]
		}
		gp := parent[p]
		parent[s] = gp
		if side[p] == 0 {
			left[gp] = s
		} else {
			right[gp] = s
		}
		side[s] = side[p]
		raked[v] = true
	}
	return buf
}

// rakeLogParallel runs rakeLogChunk per worker into engine-owned
// staging buffers and merges them into the log in worker order. Every
// staging slice is reset up front: ForChunks may clamp to fewer than
// procs workers, and a worker slot it never runs would otherwise carry
// a previous phase's records into this group's merge.
func (en *Engine) rakeLogParallel(e *Expr, phase int, live []int32, half, procs int) {
	en.recs = arena.Grow(en.recs, procs)
	recs := en.recs
	for w := range recs {
		recs[w] = recs[w][:0]
	}
	en.call.e, en.call.phase, en.call.live = e, phase, live
	en.fanout().ForChunksCtx(half, procs, en, taskRakeLog)
	for _, rs := range recs {
		en.log = append(en.log, rs...)
	}
}

func taskRakeLog(c any, w, lo, hi int) {
	en := c.(*Engine)
	en.recs[w] = en.rakeLogChunk(en.call.e, en.call.phase, en.call.live, en.recs[w], lo, hi)
}

// expandChunk replays log entries [base+lo, base+hi) of one phase
// group; each entry fixes its parent's subtree value from the recorded
// pending functions and the sibling's (already final) value.
func (en *Engine) expandChunk(dst []int64, e *Expr, base, lo, hi int) {
	log := en.log
	for j := base + lo; j < base+hi; j++ {
		rec := log[j]
		bv := rec.sa*dst[rec.s] + rec.sb
		if e.ops[rec.p] == OpAdd {
			dst[rec.p] = rec.a + bv
		} else {
			dst[rec.p] = rec.a * bv
		}
	}
}

func (en *Engine) expandParallel(dst []int64, e *Expr, base, cnt, procs int) {
	en.call.dst, en.call.e, en.call.base = dst, e, base
	en.fanout().ForChunksCtx(cnt, procs, en, taskExpand)
}

func taskExpand(c any, _, lo, hi int) {
	en := c.(*Engine)
	en.expandChunk(en.call.dst, en.call.e, en.call.base, lo, hi)
}

// --- Rooting ----------------------------------------------------------

// RootAtInto orients an unrooted tree into the caller-provided parent
// array, which must have length n — the allocation-free counterpart of
// RootAt (see there for the Euler-circuit algorithm). The arc arrays,
// adjacency rings, circuit list and ranks all live in the engine.
// Edges that pass the per-edge checks but are not a single tree leave
// arcs off the circuit, and the rank's refusal becomes the error.
func (en *Engine) RootAtInto(parent []int, n int, edges [][2]int, root int, opt listrank.Options) (err error) {
	if n <= 0 {
		return fmt.Errorf("tree: RootAt requires n > 0")
	}
	if len(parent) != n {
		panic(fmt.Sprintf("tree: RootAtInto: len(parent) = %d, want n = %d", len(parent), n))
	}
	if root < 0 || root >= n {
		return fmt.Errorf("tree: root %d out of range [0,%d)", root, n)
	}
	if len(edges) != n-1 {
		return fmt.Errorf("tree: %d edges for %d vertices, want %d", len(edges), n, n-1)
	}
	if n == 1 {
		parent[0] = -1
		return nil
	}
	defer en.releaseCall()
	defer refused(&err, "tree: edges do not form a single tree")

	// Arc 2i is edges[i] tail→head, arc 2i+1 its twin; twin(a) = a^1.
	m := 2 * (n - 1)
	en.tail = arena.Grow(en.tail, m)
	en.head = arena.Grow(en.head, m)
	tail, head := en.tail, en.head
	for i, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return fmt.Errorf("tree: edge %d = {%d, %d} out of range", i, u, v)
		}
		if u == v {
			return fmt.Errorf("tree: edge %d is a self-loop at %d", i, u)
		}
		tail[2*i], head[2*i] = int32(u), int32(v)
		tail[2*i+1], head[2*i+1] = int32(v), int32(u)
	}

	// Adjacency rings by counting sort on arc tails: incident[start[v]:
	// start[v+1]] lists the arcs leaving v.
	en.start = arena.Zeroed(en.start, n+1)
	start := en.start
	for _, t := range tail {
		start[t+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	en.incident = arena.Grow(en.incident, m)
	en.fill = arena.Grow(en.fill, n)
	en.ringPos = arena.Grow(en.ringPos, m)
	incident, fill := en.incident, en.fill
	copy(fill, start[:n])
	for a := 0; a < m; a++ {
		v := tail[a]
		incident[fill[v]] = int32(a)
		en.ringPos[a] = fill[v] - start[v]
		fill[v]++
	}

	// Euler circuit: succ(a) = the arc after twin(a) in head(a)'s ring.
	procs := opt.Procs
	if procs < 1 {
		procs = 1
	}
	en.next = arena.Grow(en.next, m)
	if procs == 1 {
		en.circuitChunk(0, m)
	} else {
		en.circuitParallel(m, procs)
	}

	// Cut the circuit at the root: the tour starts with the root's
	// first outgoing arc, and the arc whose successor ring-wraps back
	// to it — the twin of the root's last outgoing arc — becomes the
	// list tail.
	if start[root+1] == start[root] {
		return fmt.Errorf("tree: root %d has no incident edges", root)
	}
	first := int64(incident[start[root]])
	last := int64(incident[start[root+1]-1] ^ 1)
	en.next[last] = last

	en.value = arena.Zeroed(en.value, m)
	en.il = listrank.List{Next: en.next, Value: en.value, Head: first}
	tour := &en.il
	en.ranks = arena.Grow(en.ranks, m)
	en.lrEngine().RankInto(en.ranks, tour, opt)
	en.il = listrank.List{}

	// Orientation: the earlier-ranked arc of each twin pair points
	// away from the root.
	parent[root] = -1
	if procs == 1 {
		en.orientChunk(parent, 0, n-1)
	} else {
		en.orientParallel(parent, n-1, procs)
	}
	return nil
}

// circuitChunk links arcs [lo, hi) of the Euler circuit.
func (en *Engine) circuitChunk(lo, hi int) {
	head, start, incident, ringPos, next := en.head, en.start, en.incident, en.ringPos, en.next
	for a := lo; a < hi; a++ {
		tw := a ^ 1
		v := head[a] // == tail[tw]
		deg := start[v+1] - start[v]
		i := ringPos[tw] + 1
		if i == deg {
			i = 0
		}
		next[a] = int64(incident[start[v]+i])
	}
}

func (en *Engine) circuitParallel(m, procs int) {
	en.fanout().ForChunksCtx(m, procs, en, taskCircuit)
}

func taskCircuit(c any, _, lo, hi int) { c.(*Engine).circuitChunk(lo, hi) }

// orientChunk orients edges [lo, hi) by comparing twin-arc ranks.
func (en *Engine) orientChunk(parent []int, lo, hi int) {
	ranks, tail, head := en.ranks, en.tail, en.head
	for i := lo; i < hi; i++ {
		a, b := 2*i, 2*i+1
		if ranks[a] < ranks[b] {
			parent[head[a]] = int(tail[a])
		} else {
			parent[head[b]] = int(tail[b])
		}
	}
}

func (en *Engine) orientParallel(parent []int, cnt, procs int) {
	en.call.parent = parent
	en.fanout().ForChunksCtx(cnt, procs, en, taskOrient)
}

func taskOrient(c any, _, lo, hi int) {
	en := c.(*Engine)
	en.orientChunk(en.call.parent, lo, hi)
}

// --- LCA --------------------------------------------------------------

// LCA builds t's constant-time lowest-common-ancestor index (see
// Tree.LCA) from the tour ranks and the depths New kept, on the
// engine's worker pool. The returned index owns its storage — it
// outlives the call — so the build is not allocation-free.
func (en *Engine) LCA(t *Tree) *LCAIndex {
	n := t.n
	ranks, depths := t.tourRanks(), t.depths
	m := 2 * n
	x := &LCAIndex{
		t:     t,
		first: make([]int32, n),
		depth: make([]int64, m),
		at:    make([]int32, m),
	}
	procs := t.opt.Procs
	if procs < 1 {
		procs = 1
	}
	// Invert the ranks: position rank(e) holds element e. down(v)
	// puts the walk at v (depth(v)), up(v) returns it to v's parent
	// (depth(v) - 1; for the root's up element the walk ends where it
	// started). The LCA build allocates its retained index anyway, so
	// the fan-out uses the pool's mirror form (resident workers,
	// closure at the call site).
	en.fanout().ForChunks(n, procs, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			pd := ranks[v]
			x.first[v] = int32(pd)
			x.at[pd] = int32(v)
			x.depth[pd] = depths[v]
			pu := ranks[n+v]
			p := t.parent[v]
			if p < 0 {
				p = int32(v) // root's up: walk stays at the root
			}
			x.at[pu] = p
			x.depth[pu] = depths[v] - 1
		}
	})
	x.depth[ranks[n+t.root]] = 0 // root's up position: depth 0, not -1

	x.buildSparse(m, procs)
	return x
}
