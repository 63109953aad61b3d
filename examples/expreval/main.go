// Expression evaluation by parallel tree contraction — the
// application the paper's reference list orbits around (Miller-Reif
// parallel tree contraction, refs 25/26/31; the rake-only variant of
// Abrahamson et al., ref 1) and a constructive answer to its closing
// question "whether having a fast list-ranking implementation helps
// in making other pointer-based applications practical" (§7).
//
// The example builds a large random arithmetic expression — a full
// binary tree whose internal nodes are + or × and whose leaves are
// small integers — and evaluates it two ways: a sequential postorder
// walk, and tree.Expr's rake contraction, whose leaf numbering is one
// list scan of the expression's Euler tour and whose rake rounds
// retire half the leaves each time. Deep, comb-shaped trees are
// included deliberately: they are the shapes on which naive
// evaluate-by-level parallelism degrades to the tree height, while
// contraction stays at O(log n) rounds.
package main

import (
	"fmt"
	"time"

	"listrank"
	"listrank/tree"
)

type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// buildExpr builds a random full binary expression tree with nLeaves
// leaves. combBias in [0,1] is the probability that a split puts just
// one leaf on the left (producing deep right combs as it approaches 1).
func buildExpr(nLeaves int, seed uint64, combBias float64) (left, right []int, ops []tree.Op, vals []int64) {
	n := 2*nLeaves - 1
	left = make([]int, n)
	right = make([]int, n)
	ops = make([]tree.Op, n)
	vals = make([]int64, n)
	rnd := xorshift(seed | 1)
	next := 1
	type frame struct{ v, k int }
	stack := []frame{{0, nLeaves}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.k == 1 {
			left[f.v], right[f.v] = -1, -1
			vals[f.v] = int64(rnd.next()%5) - 2
			continue
		}
		// Mostly + with a sprinkle of ×, to keep values in range on
		// million-node trees.
		if rnd.next()%8 == 0 {
			ops[f.v] = tree.OpMul
		} else {
			ops[f.v] = tree.OpAdd
		}
		kl := 1
		if float64(rnd.next()%1000)/1000 >= combBias {
			kl = 1 + int(rnd.next()%uint64(f.k-1))
		}
		l, r := next, next+1
		next += 2
		left[f.v], right[f.v] = l, r
		stack = append(stack, frame{l, kl}, frame{r, f.k - kl})
	}
	return left, right, ops, vals
}

func main() {
	for _, shape := range []struct {
		name     string
		combBias float64
	}{
		{"balanced-ish", 0.0},
		{"mixed", 0.5},
		{"deep comb", 0.97},
	} {
		nLeaves := 1 << 19
		left, right, ops, vals := buildExpr(nLeaves, 42, shape.combBias)
		e, err := tree.NewExpr(left, right, ops, vals, listrank.Options{})
		if err != nil {
			panic(err)
		}

		start := time.Now()
		want := e.EvalSerial()
		tSerial := time.Since(start)

		var st tree.ContractStats
		start = time.Now()
		got := e.Eval(&st)
		tContract := time.Since(start)

		if got != want {
			panic(fmt.Sprintf("%s: contraction %d != serial %d", shape.name, got, want))
		}
		fmt.Printf("%-12s  %d nodes: value %d\n", shape.name, e.Len(), got)
		fmt.Printf("              serial postorder %v, rake contraction %v (%d rounds, %d rakes)\n",
			tSerial, tContract, st.Rounds, st.Rakes)
	}
	fmt.Println("\nrounds stay logarithmic on every shape — the odd-leaf")
	fmt.Println("discipline halves the leaves per round even on combs,")
	fmt.Println("where level-by-level evaluation would take ~n/2 steps.")

	// Rake alone needs a full binary tree. GeneralExpr also takes
	// unary affine nodes f(x) = ax + b (the compress half of
	// Miller-Reif contraction, ref 31): it folds every unary chain into
	// the pending function of the node below it and rakes the binary
	// tree that is left. A pure chain over a single leaf is all fold.
	const chainLen = 1 << 19
	left := make([]int, chainLen)
	right := make([]int, chainLen)
	ua := make([]int64, chainLen)
	ub := make([]int64, chainLen)
	leafVal := make([]int64, chainLen)
	for i := 0; i < chainLen-1; i++ {
		left[i], right[i] = i+1, -1
		ua[i] = int64(i%3) - 1
		ub[i] = int64(i % 7)
	}
	left[chainLen-1], right[chainLen-1] = -1, -1
	leafVal[chainLen-1] = 9
	g, err := tree.NewGeneralExpr(left, right, make([]tree.Op, chainLen), ua, ub, leafVal, listrank.Options{})
	if err != nil {
		panic(err)
	}

	start := time.Now()
	want := g.EvalSerial()
	tSerial := time.Since(start)

	var rc tree.RakeCompressStats
	start = time.Now()
	got := g.Eval(&rc)
	tEval := time.Since(start)
	if got != want {
		panic("GeneralExpr.Eval disagrees with serial")
	}
	fmt.Printf("\nunary chain  %d nodes: value %d\n", chainLen, got)
	fmt.Printf("              serial %v | chain fold + rake %v (%d chains, %d unary nodes folded, %d rounds)\n",
		tSerial, tEval, rc.FoldedChains, rc.Compressed, rc.Rounds)

	// EvalAll gives every node's subtree value: each chain fills
	// bottom-up from the node below it.
	all := g.EvalAll(nil)
	fmt.Printf("EvalAll: root %d, node 1 %d (chain suffix values, no extra walks)\n",
		all[g.Root()], all[1])
}
