package graph

import (
	"listrank"
	"listrank/internal/fleet"
	"listrank/tree"
)

// Engine is the reusable working-space arena for the graph algorithms,
// completing the three-layer arena architecture (internal/arena →
// core.Scratch → package engines): it owns the label forest and
// per-worker flags behind hook-and-shortcut, the union-find tables
// behind the serial components and every spanning forest, and the
// whole Tarjan-Vishkin working set behind biconnectivity — and it
// embeds a tree.Engine (which embeds a listrank.Engine) for the
// Euler-circuit rooting stage, so the full pipeline reuses one arena
// stack instead of hitting the global pools.
//
// An Engine may be reused across graphs of any size and any options,
// growing its buffers geometrically to the largest problem seen. It
// must not be used concurrently; for concurrent callers either hold
// one Engine per goroutine or use the package-level functions
// (ConnectedComponents, SpanningForest, BiconnectedComponents), which
// draw engines from an internal pool.
//
// Zero-allocation steady state holds for ComponentsInto — all three
// algorithms — and SpanningForestInto once the arena and the
// destination are warm: hook-and-shortcut dispatches its fan-outs
// closure-free onto resident worker-pool workers instead of spawning
// goroutines per round. At Procs > 1 this requires a pool at least Procs wide with
// no competing dispatcher (an engine-owned pool via SetPool always
// qualifies; an undersized or contended pool degrades fan-outs to
// spawn-per-call — allocations, not errors). Biconnectivity reuses
// the flat working set but still allocates its structural
// intermediates (the Euler-tour tree, sparse tables and auxiliary
// graph).
type Engine struct {
	// pool is the resident worker pool every fan-out dispatches on;
	// nil selects the process-wide shared pool. The embedded tree
	// engine (and through it the ranking arena) dispatches on the
	// same pool.
	pool *listrank.WorkerPool

	// call stashes the per-dispatch arguments read by the named pool
	// task functions (task* in components.go); caller-owned references
	// are dropped when the algorithms return.
	call struct {
		g *Graph
		f []int32
	}

	// Hook-and-shortcut per-worker flags.
	changed, flatW []bool

	// Serial working set: union-find parent and size tables, DFS/BFS
	// stack (doubling as the biconnectivity edge stack) and
	// canonical-label staging.
	parent []int32
	size   []int32
	stack  []int32
	minOf  []int32

	// Biconnectivity working set.
	forestIDs  []int
	isTree     []bool
	treeEdgeID []int32
	parentV    []int // rooted forest parent array
	parentFull []int // with the virtual super-root appended
	pairs      [][2]int
	deg        []int32
	bstart     []int32
	badj       []int32
	bfill      []int32
	pre        []int32
	sz         []int32
	loA, hiA   []int32
	rep        []int32
	minEdge    []int32
	blockSize  []int32
	disc, low  []int32
	frames     []biFrame
	auxCC      Components

	// te provides the Euler-circuit rooting (and, inside it, the
	// list-ranking arena) for the biconnectivity pipeline.
	te *tree.Engine
}

// NewEngine returns an empty engine; buffers are allocated lazily and
// amortized across calls.
func NewEngine() *Engine { return &Engine{} }

// treeEngine returns the embedded tree engine, creating it on first
// use so the zero value of Engine is fully usable. It dispatches on
// the same worker pool as this engine.
func (en *Engine) treeEngine() *tree.Engine {
	if en.te == nil {
		en.te = tree.NewEngine()
		en.te.SetPool(en.pool)
	}
	return en.te
}

// SetPool selects the worker pool this engine (and its embedded tree
// and ranking engines) dispatches parallel phases on; nil (the
// default) selects the process-wide shared pool. The engine never
// closes the pool.
func (en *Engine) SetPool(pl *listrank.WorkerPool) {
	en.pool = pl
	if en.te != nil {
		en.te.SetPool(pl)
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
// storage (the graph, the destination labeling) so a held or pooled
// engine never keeps a finished problem alive.
func (en *Engine) releaseCall() {
	en.call.g, en.call.f = nil, nil
}

// engineFleet backs the package-level entry points, so callers that
// never construct an Engine still amortize working-space allocation
// across calls. Engines are checked out by vertex count from a
// size-binned fleet pool — the same discipline as the listrank
// serving layer — so a small graph never borrows (and pins) an arena
// warmed on a huge one, and unlike a sync.Pool the fleet retains its
// warm engines across GCs.
var engineFleet = fleet.NewPool(nil, NewEngine)

func getEngine(n int) *Engine    { return engineFleet.Checkout(n) }
func putEngine(n int, e *Engine) { engineFleet.Checkin(n, e) }

// ComponentsInto labels the components of g into c with the selected
// algorithm, resizing c's storage through the arena helpers: a caller
// that reuses one Components across calls pays no allocation once it
// is warm. All algorithms produce the identical canonical labeling.
func (en *Engine) ComponentsInto(c *Components, g *Graph, opt CCOptions) {
	switch opt.Algorithm {
	case CCSerialDFS:
		en.componentsDFS(c, g)
	case CCUnionFind:
		en.componentsUnionFind(c, g)
	default:
		en.componentsHookShortcut(c, g, opt.procs())
	}
}

// BiconnectedComponentsInto computes the blocks, articulation points
// and bridges of g into out, resizing out's storage through the arena
// helpers; see the package-level BiconnectedComponents.
func (en *Engine) BiconnectedComponentsInto(out *Biconnectivity, g *Graph, opt BiconnOptions) error {
	if opt.Algorithm == BiconnSerialDFS {
		en.biconnSerial(out, g)
		return nil
	}
	return en.biconnTarjanVishkin(out, g, opt)
}
