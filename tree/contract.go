package tree

import (
	"fmt"

	"listrank"
	"listrank/internal/arena"
)

// Op is an expression-tree operator.
type Op int8

// Operators supported by Expr. Both are associative and commutative
// and both compose with linear functions, which is what rake
// contraction needs.
const (
	OpAdd Op = iota
	OpMul
)

// Expr is a full binary expression tree — every internal node has
// exactly two children and an operator, every leaf a constant —
// prepared for parallel evaluation by rake contraction.
//
// Tree contraction is the application the paper's reference list
// orbits around (Miller-Reif [25, 26], Abrahamson et al. [1],
// Reid-Miller, Miller and Modugno [31]), and the simplest contraction
// algorithm — Abrahamson et al.'s rake-only method — leans directly
// on list ranking: number the leaves left to right (here: one list
// scan of the Euler tour), then alternately rake the odd-numbered
// left-child and odd-numbered right-child leaves. No two raked leaves
// interfere (adjacent leaves are never both odd, and the left/right
// phases separate the remaining conflicts), and at least half the
// leaves — minus the at most one odd leaf hanging directly off the
// root — retire each round, so O(log n) rounds and O(n) total work
// evaluate the tree.
//
// Each live node carries a pending linear function f(x) = a·x + b;
// raking leaf v with parent p and sibling s folds v's constant and
// p's operator into s's function:
//
//	op = +:  f_s'(x) = f_p(A + f_s(x))
//	op = ×:  f_s'(x) = f_p(A · f_s(x))
//
// where A = f_v(value of v). Linear functions are closed under both
// compositions, which is the algebraic heart of tree contraction.
// Arithmetic is int64 with ordinary wraparound on overflow.
type Expr struct {
	n           int
	root        int32
	left, right []int32 // -1 for leaves
	ops         []Op
	leafVal     []int64
	opt         listrank.Options
	leaves      []int32 // leaf vertices in left-to-right tree order
}

// NewExpr builds an expression tree over n = len(left) nodes. Node i
// is a leaf with value leafVal[i] when left[i] == right[i] == -1, and
// an internal node computing ops[i] over its children otherwise. The
// root is discovered (the one node that is no node's child). The
// options select the list-ranking configuration used for leaf
// numbering. NewExpr returns an error unless the arrays describe a
// single full binary tree; a cycle of child links off the root is
// found by the leaf numbering's scan of the tour, which refuses it.
func NewExpr(left, right []int, ops []Op, leafVal []int64, opt listrank.Options) (*Expr, error) {
	n := len(left)
	if n == 0 {
		return nil, fmt.Errorf("tree: empty expression")
	}
	if len(right) != n || len(ops) != n || len(leafVal) != n {
		return nil, fmt.Errorf("tree: array lengths disagree: left %d right %d ops %d leafVal %d",
			n, len(right), len(ops), len(leafVal))
	}
	e := &Expr{
		n:       n,
		left:    make([]int32, n),
		right:   make([]int32, n),
		ops:     make([]Op, n),
		leafVal: make([]int64, n),
		opt:     opt,
	}
	copy(e.ops, ops)
	copy(e.leafVal, leafVal)
	childOf := make([]int32, n)
	for i := range childOf {
		childOf[i] = -1
	}
	for i := 0; i < n; i++ {
		l, r := left[i], right[i]
		switch {
		case l == -1 && r == -1:
			e.left[i], e.right[i] = -1, -1
		case l == -1 || r == -1:
			return nil, fmt.Errorf("tree: node %d has one child; expression trees must be full", i)
		default:
			for _, c := range [2]int{l, r} {
				if c < 0 || c >= n {
					return nil, fmt.Errorf("tree: node %d child %d out of range", i, c)
				}
				if c == i {
					return nil, fmt.Errorf("tree: node %d is its own child", i)
				}
				if childOf[c] != -1 {
					return nil, fmt.Errorf("tree: node %d is a child of both %d and %d", c, childOf[c], i)
				}
				childOf[c] = int32(i)
			}
			if l == r {
				return nil, fmt.Errorf("tree: node %d has the same child twice", i)
			}
			e.left[i], e.right[i] = int32(l), int32(r)
		}
	}
	root := int32(-1)
	for i, p := range childOf {
		if p == -1 {
			if root != -1 {
				return nil, fmt.Errorf("tree: two roots, %d and %d", root, i)
			}
			root = int32(i)
		}
	}
	if root == -1 {
		return nil, fmt.Errorf("tree: no root (every node is somebody's child)")
	}
	e.root = root

	if err := e.numberLeaves(); err != nil {
		return nil, err
	}
	return e, nil
}

// numberLeaves ranks the left-right-ordered Euler tour once to number
// the leaves, validating acyclicity as a side effect. The tour list
// and its scan live in a pooled engine's arena; only the retained
// leaves array is allocated.
func (e *Expr) numberLeaves() (err error) {
	n := e.n
	en := getEngine(n)
	defer putEngine(n, en)
	defer refused(&err, "tree: expression structure is cyclic")
	en.next = arena.Grow(en.next, 2*n)
	en.value = arena.Grow(en.value, 2*n)
	next, value := en.next, en.value
	down := func(v int32) int64 { return int64(v) }
	up := func(v int32) int64 { return int64(n) + int64(v) }
	nLeaves := 0
	for v := int32(0); v < int32(n); v++ {
		value[up(v)] = 0
		if e.left[v] == -1 {
			next[down(v)] = up(v)
			value[down(v)] = 1
			nLeaves++
		} else {
			value[down(v)] = 0
			next[down(v)] = down(e.left[v])
			next[up(e.left[v])] = down(e.right[v])
			next[up(e.right[v])] = up(v)
		}
	}
	next[up(e.root)] = up(e.root)
	en.il = listrank.List{Next: next, Value: value, Head: down(e.root)}
	en.pfx = arena.Grow(en.pfx, 2*n)
	en.lrEngine().ScanInto(en.pfx, &en.il, e.opt)
	en.il = listrank.List{}
	idx := en.pfx
	e.leaves = make([]int32, nLeaves)
	for v := int32(0); v < int32(n); v++ {
		if e.left[v] == -1 {
			e.leaves[idx[down(v)]] = v
		}
	}
	return nil
}

// Len returns the number of nodes.
func (e *Expr) Len() int { return e.n }

// Root returns the root node.
func (e *Expr) Root() int { return int(e.root) }

// Leaves returns the leaf nodes in left-to-right tree order.
func (e *Expr) Leaves() []int32 { return e.leaves }

// EvalSerial evaluates the expression by an iterative postorder walk,
// the reference answer for Eval.
func (e *Expr) EvalSerial() int64 {
	val := make([]int64, e.n)
	type frame struct {
		v       int32
		visited bool
	}
	stack := []frame{{e.root, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.left[f.v] == -1 {
			val[f.v] = e.leafVal[f.v]
			continue
		}
		if !f.visited {
			stack = append(stack, frame{f.v, true}, frame{e.left[f.v], false}, frame{e.right[f.v], false})
			continue
		}
		a, b := val[e.left[f.v]], val[e.right[f.v]]
		if e.ops[f.v] == OpAdd {
			val[f.v] = a + b
		} else {
			val[f.v] = a * b
		}
	}
	return val[e.root]
}

// ContractStats reports what an Eval run did.
type ContractStats struct {
	// Rounds is the number of rake rounds.
	Rounds int
	// Rakes is the total number of leaves raked.
	Rakes int
}

// Eval evaluates the expression by parallel rake contraction. The
// tree itself is not modified (contraction state lives in a pooled
// engine's arena), so Eval is repeatable. stats may be nil. Hold an
// explicit Engine and call its Eval method to control working-space
// reuse directly; with a warm engine the evaluation is allocation-free
// at any Procs (parallel rounds dispatch onto resident worker-pool
// workers).
func (e *Expr) Eval(stats *ContractStats) int64 {
	en := getEngine(e.n)
	v := en.Eval(e, stats)
	putEngine(e.n, en)
	return v
}

// rakeRec records one rake for the EvalAll expansion: a leaf whose
// value through its pending function was a was raked into parent p,
// whose other child s had pending function (sa, sb) at that moment.
type rakeRec struct {
	p, s      int32
	a, sa, sb int64
}

// EvalAll returns the value of every node's subtree — the full
// Miller-Reif tree evaluation [25, 26], with the expansion phase the
// contraction algorithms pair with their reduction (the same
// contract / solve-small / expand shape as the paper's three phases).
//
// Contraction logs every rake. A rake of leaf v into parent p with
// sibling s fixes val(p) = f_v(c_v) op f_s(val(s)); the subtree value
// of a survivor is invariant under later rakes strictly inside it, so
// replaying the log in reverse — each round's rakes in parallel,
// rounds in reverse order — meets every entry with val(s) already
// known: s either survived to the end, was itself a leaf, or was the
// parent of a later (= already replayed) rake.
func (e *Expr) EvalAll(stats *ContractStats) []int64 {
	out := make([]int64, e.n)
	en := getEngine(e.n)
	en.EvalAllInto(out, e, stats)
	putEngine(e.n, en)
	return out
}
