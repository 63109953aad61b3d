package graph

import (
	"runtime"
	"sync/atomic"

	"listrank/internal/arena"
	"listrank/internal/par"
)

// Components holds a connected-components labeling: Label[v] is the
// smallest vertex in v's component (so labels are canonical and two
// labelings of the same graph are directly comparable), and Count is
// the number of components.
type Components struct {
	// Label[v] is the canonical (smallest-member) label of v's
	// component.
	Label []int32
	// Count is the number of components.
	Count int
}

// Same reports whether u and v are in the same component.
func (c *Components) Same(u, v int) bool { return c.Label[u] == c.Label[v] }

// CCAlgorithm selects a connected-components implementation.
type CCAlgorithm int

const (
	// CCHookShortcut (default) is the parallel hook-and-shortcut
	// algorithm: alternate rounds of hooking every vertex to the
	// minimum label reachable over one edge and Wyllie-style pointer
	// jumping on the label forest until it is flat.
	CCHookShortcut CCAlgorithm = iota
	// CCSerialDFS is an iterative depth-first search, the natural
	// serial baseline.
	CCSerialDFS
	// CCUnionFind is weighted union-find with path halving, the other
	// serial baseline (near-linear, tiny constants).
	CCUnionFind
)

// String returns the algorithm's short name.
func (a CCAlgorithm) String() string {
	switch a {
	case CCHookShortcut:
		return "hook-shortcut"
	case CCSerialDFS:
		return "serial-dfs"
	case CCUnionFind:
		return "union-find"
	}
	return "unknown"
}

// CCOptions tunes ConnectedComponents. The zero value selects the
// parallel hook-and-shortcut algorithm on all available CPUs.
type CCOptions struct {
	// Algorithm selects the implementation (default CCHookShortcut).
	Algorithm CCAlgorithm
	// Procs is the number of worker goroutines for the parallel
	// algorithm; 0 means GOMAXPROCS. Serial algorithms ignore it.
	Procs int
}

func (o CCOptions) procs() int {
	if o.Procs > 0 {
		return o.Procs
	}
	return runtime.GOMAXPROCS(0)
}

// ConnectedComponents labels the components of g with the selected
// algorithm, borrowing a pooled Engine for the working space; hold an
// explicit Engine and call ComponentsInto to control reuse directly.
// All algorithms produce the identical canonical labeling.
func ConnectedComponents(g *Graph, opt CCOptions) *Components {
	en := getEngine(g.n)
	c := &Components{}
	en.ComponentsInto(c, g, opt)
	putEngine(g.n, en)
	return c
}

// --- Serial baselines ------------------------------------------------

// componentsDFS is the test baseline entry point; it borrows a pooled
// engine for the stack.
func componentsDFS(g *Graph) *Components {
	en := getEngine(g.n)
	c := &Components{}
	en.componentsDFS(c, g)
	putEngine(g.n, en)
	return c
}

func (en *Engine) componentsDFS(c *Components, g *Graph) {
	c.Label = arena.Filled(c.Label, g.n, -1)
	label := c.Label
	stack := en.stack[:0]
	count := 0
	for s := 0; s < g.n; s++ {
		if label[s] != -1 {
			continue
		}
		count++
		root := int32(s) // smallest vertex: outer loop is ascending
		label[s] = root
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for i := g.adjStart[v]; i < g.adjStart[v+1]; i++ {
				w := g.adjVert[i]
				if label[w] == -1 {
					label[w] = root
					stack = append(stack, w)
				}
			}
		}
	}
	en.stack = stack[:0]
	c.Count = count
}

// ufFind is union-find lookup with path halving.
func ufFind(parent []int32, v int32) int32 {
	for parent[v] != v {
		parent[v] = parent[parent[v]] // path halving
		v = parent[v]
	}
	return v
}

func (en *Engine) componentsUnionFind(c *Components, g *Graph) {
	n := g.n
	en.parent = arena.Iota32(en.parent, n)
	en.size = arena.Filled(en.size, n, 1)
	parent, size := en.parent, en.size
	count := n
	for _, e := range g.edges {
		ru, rv := ufFind(parent, e[0]), ufFind(parent, e[1])
		if ru == rv {
			continue
		}
		if size[ru] < size[rv] {
			ru, rv = rv, ru
		}
		parent[rv] = ru
		size[ru] += size[rv]
		count--
	}
	// Canonicalize: label every vertex with the minimum vertex of its
	// root's class.
	en.minOf = arena.Filled(en.minOf, n, int32(n))
	minOf := en.minOf
	for v := 0; v < n; v++ {
		r := ufFind(parent, int32(v))
		if int32(v) < minOf[r] {
			minOf[r] = int32(v)
		}
	}
	c.Label = arena.Grow(c.Label, n)
	label := c.Label
	for v := 0; v < n; v++ {
		label[v] = minOf[ufFind(parent, int32(v))]
	}
	c.Count = count
}

// --- Parallel hook-and-shortcut ---------------------------------------
//
// Every vertex carries a pointer f[v] into a label forest, initially
// f[v] = v. Rounds alternate:
//
//	hook:     for every edge {u,v}, lower min(f[u],f[v]) into the
//	          other endpoint's root by an atomic-min write;
//	shortcut: f[v] = f[f[v]] repeatedly until the forest is flat —
//	          exactly Wyllie's pointer jumping (§2.2) applied to the
//	          label forest, with the same doubling behaviour.
//
// Pointers only ever decrease toward smaller labels, so the forest
// converges to the canonical minimum-vertex labeling; on realistic
// graphs a handful of rounds flatten everything. This is the
// shared-memory "SV-style" family (Shiloach-Vishkin 1982 and its
// modern descendants), the algorithm every implementation study the
// paper cites builds some variant of.
//
// The label forest is computed directly in c.Label; the only other
// working state is the two p-sized per-worker flag arrays. The chunk
// bodies are named functions: the p == 1 path calls them inline, and
// the *Parallel helpers dispatch them closure-free onto the engine's
// resident worker pool (arguments travel through the call stash), so
// both paths stay off the heap.

func (en *Engine) componentsHookShortcut(c *Components, g *Graph, p int) {
	defer en.releaseCall()
	n := g.n
	c.Label = arena.Iota32(c.Label, n)
	f := c.Label
	if n == 0 {
		c.Count = 0
		return
	}
	p = par.Procs(p, n)
	m := len(g.edges)
	en.changed = arena.Grow(en.changed, p)
	en.flatW = arena.Grow(en.flatW, p)
	changed, flatW := en.changed, en.flatW

	for {
		// Hook: push the smaller endpoint label onto the root of the
		// larger. Writing at the root (f[fu] rather than fu) is what
		// lets disjoint trees merge in one round.
		for w := range changed {
			changed[w] = false
		}
		if m > 0 {
			if p == 1 {
				changed[0] = hookChunk(g, f, 0, m)
			} else {
				en.hookParallel(g, f, m, p)
			}
		}
		// Shortcut: pointer jumping until flat.
		for {
			if p == 1 {
				flatW[0] = shortcutChunk(f, 0, n)
			} else {
				en.shortcutParallel(f, n, p)
			}
			flat := true
			for _, ok := range flatW {
				flat = flat && ok
			}
			if flat {
				break
			}
		}
		any := false
		for _, ch := range changed {
			any = any || ch
		}
		if !any {
			break
		}
	}

	count := 0
	for v := 0; v < n; v++ {
		if f[v] == int32(v) {
			count++
		}
	}
	c.Count = count
}

func atomicMin(addr *int32, val int32) bool {
	for {
		cur := atomic.LoadInt32(addr)
		if val >= cur {
			return false
		}
		if atomic.CompareAndSwapInt32(addr, cur, val) {
			return true
		}
	}
}

// hookChunk hooks edges [lo, hi) and reports whether any label moved.
func hookChunk(g *Graph, f []int32, lo, hi int) bool {
	hooked := false
	for i := lo; i < hi; i++ {
		e := g.edges[i]
		fu := atomic.LoadInt32(&f[e[0]])
		fv := atomic.LoadInt32(&f[e[1]])
		if fu == fv {
			continue
		}
		if fu < fv {
			hooked = atomicMin(&f[fv], fu) || hooked
		} else {
			hooked = atomicMin(&f[fu], fv) || hooked
		}
	}
	return hooked
}

// shortcutChunk jumps pointers for vertices [lo, hi) and reports
// whether its slice of the forest was already flat.
func shortcutChunk(f []int32, lo, hi int) bool {
	ok := true
	for v := lo; v < hi; v++ {
		fv := atomic.LoadInt32(&f[v])
		ffv := atomic.LoadInt32(&f[fv])
		if ffv != fv {
			atomic.StoreInt32(&f[v], ffv)
			ok = false
		}
	}
	return ok
}

func (en *Engine) hookParallel(g *Graph, f []int32, m, p int) {
	en.call.g, en.call.f = g, f
	en.fanout().ForChunksCtx(m, p, en, taskHook)
}

func taskHook(c any, w, lo, hi int) {
	en := c.(*Engine)
	en.changed[w] = hookChunk(en.call.g, en.call.f, lo, hi)
}

func (en *Engine) shortcutParallel(f []int32, n, p int) {
	en.call.f = f
	en.fanout().ForChunksCtx(n, p, en, taskShortcut)
}

func taskShortcut(c any, w, lo, hi int) {
	en := c.(*Engine)
	en.flatW[w] = shortcutChunk(en.call.f, lo, hi)
}
