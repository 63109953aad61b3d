package tree

import (
	"bytes"
	"fmt"

	"listrank"
	"listrank/internal/list"
)

// GeneralExpr is an expression tree over binary {+, ×} nodes, unary
// affine nodes f(x) = A·x + B, and constant leaves — the shape the
// full Miller-Reif tree contraction (rake and compress, paper refs
// [25, 26, 31]) is built for. Rake alone (Expr) requires a full binary
// tree; once unary nodes are allowed a tree can be one long chain, and
// compress is the missing half: a maximal chain of unary nodes
// collapses by composing its affine functions.
//
// Unary nodes never change shape, so NewGeneralExpr does the compress
// once: it keeps the non-unary nodes as a full binary tree (an Expr
// over compact ids) and lays every maximal unary chain out, top-down,
// against the binary node below it. Eval then folds each chain, in one
// pass over that layout, into the pending affine function of the node
// below it — the function Expr's rake already carries on every node —
// and runs Expr's rake contraction on the binary tree, so the rounds
// are logarithmic in the number of leaves whatever the shape:
// balanced, caterpillar or pure chain. Arithmetic is int64 with
// ordinary wraparound on overflow.
type GeneralExpr struct {
	n    int
	root int32
	opt  listrank.Options

	// bin is the full binary tree over the non-unary nodes, numbered in
	// node order: binary node c is node orig[c], so orig[c] ≥ c.
	bin  Expr
	orig []int32
	// The maximal unary chains, one after another, each top-down:
	// chain k is positions [chainEnd[k-1], chainEnd[k]) (from 0 for
	// k = 0) and hangs above binary node chainBin[k]; node chainNode[j]
	// computes chainA[j]·x + chainB[j]. The root's chain, if the root
	// is unary, is chain 0.
	chainNode      []int32
	chainA, chainB []int64
	chainEnd       []int32
	chainBin       []int32
}

// RakeCompressStats reports what an evaluation did.
type RakeCompressStats struct {
	// Rounds is the number of rake rounds on the binary tree.
	Rounds int
	// Rakes is the number of leaves raked.
	Rakes int
	// Compressed is the number of unary nodes folded into the pending
	// function of the node below their chain.
	Compressed int
	// FoldedChains is the number of maximal unary chains folded.
	FoldedChains int
}

// NewGeneralExpr builds a general expression tree over n = len(left)
// nodes. Node i is a leaf when left[i] == right[i] == -1 (value
// leafVal[i]); a unary node when right[i] == -1 and left[i] ≥ 0
// (computing ua[i]·x + ub[i] over child left[i]); and a binary node
// otherwise (computing ops[i] over both children). The node arrays
// must describe a single tree: every node reachable from one root,
// each with one parent. A cycle of unary nodes is refused by
// counting, and a cycle through a binary node by the binary tree's
// leaf numbering; both errors wrap listrank.ErrNotList.
func NewGeneralExpr(left, right []int, ops []Op, ua, ub, leafVal []int64, opt listrank.Options) (*GeneralExpr, error) {
	n := len(left)
	if n == 0 {
		return nil, fmt.Errorf("tree: empty expression")
	}
	if len(right) != n || len(ops) != n || len(ua) != n || len(ub) != n || len(leafVal) != n {
		return nil, fmt.Errorf("tree: array lengths disagree (left %d, right %d, ops %d, ua %d, ub %d, leafVal %d)",
			n, len(right), len(ops), len(ua), len(ub), len(leafVal))
	}
	// id numbers the non-unary nodes in node order and marks unary
	// nodes -1.
	id := make([]int32, n)
	nb := int32(0)
	for i := 0; i < n; i++ {
		l, r := left[i], right[i]
		switch {
		case l == -1 && r == -1:
		case l >= 0 && r == -1:
			id[i] = -1
			continue
		case l >= 0 && r >= 0:
			if ops[i] != OpAdd && ops[i] != OpMul {
				return nil, fmt.Errorf("tree: node %d: unknown operator %d", i, ops[i])
			}
		default:
			return nil, fmt.Errorf("tree: node %d: left %d, right %d (unary nodes use left)", i, l, r)
		}
		id[i] = nb
		nb++
	}

	// Check every child link and fill the binary tree. hasParent marks
	// each node linked as a child: a second link is a second parent,
	// and the root is the one node left unmarked. A binary node's child
	// slot names the child's id, or −2−t for a unary child t: the top
	// of a chain whose bottom fills the slot below.
	e := &GeneralExpr{n: n, opt: opt, bin: Expr{n: int(nb), opt: opt}, orig: make([]int32, nb)}
	b := &e.bin
	b.left, b.right = make([]int32, nb), make([]int32, nb)
	b.ops, b.leafVal = make([]Op, nb), make([]int64, nb)
	hasParent := make([]byte, n)
	for i := 0; i < n; i++ {
		cs := [2]int{left[i], right[i]}
		for _, c := range cs {
			switch {
			case c == -1:
				continue
			case c >= n:
				return nil, fmt.Errorf("tree: node %d: child %d out of range", i, c)
			case c == i:
				return nil, fmt.Errorf("tree: node %d is its own child", i)
			case hasParent[c] != 0:
				return nil, fmt.Errorf("tree: node %d has a second parent, %d", c, i)
			}
			hasParent[c] = 1
		}
		if c := id[i]; c >= 0 {
			e.orig[c] = int32(i)
			if cs[0] == -1 {
				b.left[c], b.right[c] = -1, -1
				b.leafVal[c] = leafVal[i]
			} else {
				b.ops[c] = ops[i]
				b.left[c], b.right[c] = slot(id, cs[0]), slot(id, cs[1])
			}
		}
	}
	root := bytes.IndexByte(hasParent, 0)
	if root < 0 {
		return nil, fmt.Errorf("tree: no root (parent cycle)")
	}
	if r := bytes.IndexByte(hasParent[root+1:], 0); r >= 0 {
		return nil, fmt.Errorf("tree: two roots, %d and %d", root, root+1+r)
	}
	e.root = int32(root)

	// Walk every chain down from its top, the root's first. With one
	// parent per node a walk cannot revisit its chain, and a cycle made
	// only of unary nodes is on no walk: the walks must cover every
	// unary node.
	unary := n - int(nb)
	e.chainNode = make([]int32, 0, unary)
	e.chainA, e.chainB = make([]int64, 0, unary), make([]int64, 0, unary)
	walk := func(t int) int32 {
		u := t
		for id[u] < 0 {
			e.chainNode = append(e.chainNode, int32(u))
			e.chainA, e.chainB = append(e.chainA, ua[u]), append(e.chainB, ub[u])
			u = left[u]
		}
		c := id[u]
		e.chainEnd, e.chainBin = append(e.chainEnd, int32(len(e.chainNode))), append(e.chainBin, c)
		return c
	}
	if b.root = id[root]; b.root < 0 {
		b.root = walk(root)
	}
	for c := 0; unary > 0 && c < len(b.left); c++ {
		if t := b.left[c]; t <= -2 {
			b.left[c] = walk(int(-2 - t))
		}
		if t := b.right[c]; t <= -2 {
			b.right[c] = walk(int(-2 - t))
		}
	}
	if k := unary - len(e.chainNode); k > 0 {
		return nil, fmt.Errorf("tree: %d unary nodes lie on a cycle: %w", k, list.ErrNotList)
	}
	if nb > 1 {
		if err := b.numberLeaves(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// slot is a binary node's child slot for child c: its id, or −2−c when
// c is unary.
func slot(id []int32, c int) int32 {
	if id[c] < 0 {
		return int32(-2 - c)
	}
	return id[c]
}

// Len returns the number of nodes.
func (e *GeneralExpr) Len() int { return e.n }

// Root returns the root node index.
func (e *GeneralExpr) Root() int { return int(e.root) }

// EvalSerial evaluates the tree by an iterative postorder walk of the
// binary tree that applies each node's chain to its value on the way
// up — the baseline the contraction is checked against.
func (e *GeneralExpr) EvalSerial() int64 {
	b := &e.bin
	fa, fb := make([]int64, b.n), make([]int64, b.n)
	for c := range fa {
		fa[c] = 1
	}
	e.foldChains(fa, fb)
	up := make([]int64, b.n) // a node's value through its chain
	type frame struct {
		v       int32
		visited bool
	}
	stack := []frame{{b.root, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := f.v
		var x int64
		switch {
		case b.left[v] == -1:
			x = b.leafVal[v]
		case !f.visited:
			stack = append(stack, frame{v, true}, frame{b.left[v], false}, frame{b.right[v], false})
			continue
		case b.ops[v] == OpAdd:
			x = up[b.left[v]] + up[b.right[v]]
		default:
			x = up[b.left[v]] * up[b.right[v]]
		}
		up[v] = fa[v]*x + fb[v]
	}
	return up[b.root]
}

// chain returns the composition of chain k, top ∘ … ∘ bottom, as
// (a, b) in a·x + b.
func (e *GeneralExpr) chain(k int) (a, b int64) {
	lo := int32(0)
	if k > 0 {
		lo = e.chainEnd[k-1]
	}
	a = 1
	for j := lo; j < e.chainEnd[k]; j++ {
		a, b = a*e.chainA[j], a*e.chainB[j]+b
	}
	return a, b
}

// foldChains sets the pending function of every binary node with a
// chain above it to the chain's composition (prepContract left the
// identity on every node).
func (e *GeneralExpr) foldChains(fa, fb []int64) {
	for k, c := range e.chainBin {
		fa[c], fb[c] = e.chain(k)
	}
}

func (e *GeneralExpr) statsOf(cs ContractStats) RakeCompressStats {
	return RakeCompressStats{Rounds: cs.Rounds, Rakes: cs.Rakes, Compressed: len(e.chainNode), FoldedChains: len(e.chainBin)}
}

// Eval evaluates the tree: the chains fold into the binary tree's
// pending functions, Expr's rake contraction evaluates the binary
// tree on a pooled engine at e's options as they are when Eval is
// called, and the root's chain applies to the result. stats, if
// non-nil, receives the counts. The receiver is not mutated, and with
// a warm pooled engine at Procs 1 Eval allocates nothing.
func (e *GeneralExpr) Eval(stats *RakeCompressStats) int64 {
	b := &e.bin
	var cs ContractStats
	var v int64
	if b.n == 1 {
		v = b.leafVal[0]
	} else {
		en := getEngine(b.n)
		en.prepContract(b)
		e.foldChains(en.fa, en.fb)
		v = en.contract(b, e.opt.Procs, &cs)
		putEngine(b.n, en)
	}
	if stats != nil {
		*stats = e.statsOf(cs)
	}
	if len(e.chainBin) > 0 && e.chainBin[0] == b.root {
		ra, rb := e.chain(0)
		v = ra*v + rb
	}
	return v
}

// EvalAll evaluates every node's subtree and returns the values
// indexed by node. Expr's EvalAll expansion gives every binary node's
// value, and each chain then fills bottom-up from the node below it.
func (e *GeneralExpr) EvalAll(stats *RakeCompressStats) []int64 {
	out := make([]int64, e.n)
	b := &e.bin
	var cs ContractStats
	if b.n == 1 {
		out[0] = b.leafVal[0]
	} else {
		en := getEngine(b.n)
		en.prepContract(b)
		e.foldChains(en.fa, en.fb)
		en.contractAll(out[:b.n], b, e.opt.Procs, &cs)
		putEngine(b.n, en)
	}
	if b.n < e.n {
		// Move each binary node's value from its id to its node:
		// orig[c] ≥ c, so going down from the top never overwrites a
		// value still to be moved.
		for c := b.n - 1; c >= 0; c-- {
			out[e.orig[c]] = out[c]
		}
		lo := int32(0)
		for k, c := range e.chainBin {
			x := out[e.orig[c]]
			for j := e.chainEnd[k] - 1; j >= lo; j-- {
				x = e.chainA[j]*x + e.chainB[j]
				out[e.chainNode[j]] = x
			}
			lo = e.chainEnd[k]
		}
	}
	if stats != nil {
		*stats = e.statsOf(cs)
	}
	return out
}
