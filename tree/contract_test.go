package tree

import (
	"errors"
	"testing"
	"testing/quick"

	"listrank"
	"listrank/internal/list"
)

// randomExpr builds a random full binary expression tree with nLeaves
// leaves, values in [-3, 3] and a mix of + and ×. Returns the arrays
// NewExpr consumes. shape < 0.5 biases toward combs (deep chains),
// otherwise balanced splits.
func randomExpr(nLeaves int, seed uint64, shape float64) (left, right []int, ops []Op, vals []int64) {
	n := 2*nLeaves - 1
	left = make([]int, n)
	right = make([]int, n)
	ops = make([]Op, n)
	vals = make([]int64, n)
	state := seed*2862933555777941757 + 3037000493
	rnd := func() uint64 {
		state = state*2862933555777941757 + 3037000493
		return state >> 16
	}
	next := 1 // node 0 is the root; nodes allocated on demand
	// build(v, k): make node v the root of a subtree with k leaves.
	var build func(v, k int)
	build = func(v, k int) {
		if k == 1 {
			left[v], right[v] = -1, -1
			vals[v] = int64(rnd()%7) - 3
			return
		}
		if rnd()%2 == 0 {
			ops[v] = OpAdd
		} else {
			ops[v] = OpMul
		}
		var kl int
		if float64(rnd()%1000)/1000 < shape {
			kl = 1 + int(rnd())%(k-1) // random split
		} else {
			kl = 1 // left comb
		}
		l, r := next, next+1
		next += 2
		left[v], right[v] = l, r
		build(l, kl)
		build(r, k-kl)
	}
	build(0, nLeaves)
	return left, right, ops, vals
}

func TestExprEvalMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		nLeaves int
		seed    uint64
		shape   float64
	}{
		{1, 1, 0.5}, {2, 2, 0.5}, {3, 3, 0.5}, {4, 4, 0.0},
		{100, 5, 0.9}, {100, 6, 0.0}, {1000, 7, 0.5},
		{5000, 8, 0.8}, {5000, 9, 0.0},
	} {
		left, right, ops, vals := randomExpr(tc.nLeaves, tc.seed, tc.shape)
		e, err := NewExpr(left, right, ops, vals, listrank.Options{Procs: 4})
		if err != nil {
			t.Fatalf("leaves=%d: %v", tc.nLeaves, err)
		}
		want := e.EvalSerial()
		var st ContractStats
		if got := e.Eval(&st); got != want {
			t.Fatalf("leaves=%d seed=%d shape=%v: Eval = %d, want %d",
				tc.nLeaves, tc.seed, tc.shape, got, want)
		}
		if tc.nLeaves >= 100 && st.Rakes != tc.nLeaves-2 {
			t.Errorf("leaves=%d: raked %d, want %d (all but the final two)",
				tc.nLeaves, st.Rakes, tc.nLeaves-2)
		}
	}
}

func TestExprEvalLogRounds(t *testing.T) {
	// Rounds must be logarithmic even on combs (the structure that
	// forces the odd/even discipline).
	for _, shape := range []float64{0.0, 0.5, 1.0} {
		left, right, ops, vals := randomExpr(4096, 77, shape)
		e, err := NewExpr(left, right, ops, vals, listrank.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var st ContractStats
		e.Eval(&st)
		// 4096 leaves, at least ~half retire per round: expect ≈ 12,
		// allow slack for the root-adjacent stragglers.
		if st.Rounds > 26 {
			t.Errorf("shape %v: %d rounds for 4096 leaves, want O(log)", shape, st.Rounds)
		}
	}
}

func TestExprEvalRepeatable(t *testing.T) {
	left, right, ops, vals := randomExpr(500, 13, 0.5)
	e, err := NewExpr(left, right, ops, vals, listrank.Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := e.Eval(nil)
	b := e.Eval(nil)
	if a != b {
		t.Fatalf("Eval not repeatable: %d then %d", a, b)
	}
}

func TestExprLeavesOrdered(t *testing.T) {
	// leaves must be in left-to-right tree order: for each internal
	// node, every leaf of the left subtree precedes every leaf of the
	// right subtree. Verify against a DFS.
	left, right, ops, vals := randomExpr(300, 17, 0.6)
	e, err := NewExpr(left, right, ops, vals, listrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	var dfs func(v int)
	dfs = func(v int) {
		if left[v] == -1 {
			want = append(want, int32(v))
			return
		}
		dfs(left[v])
		dfs(right[v])
	}
	dfs(e.Root())
	got := e.Leaves()
	if len(got) != len(want) {
		t.Fatalf("leaf count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("leaves[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNewExprRejectsBadInput(t *testing.T) {
	opt := listrank.Options{}
	le := func(xs ...int) []int { return xs }
	cases := []struct {
		name        string
		left, right []int
		ops         []Op
		vals        []int64
	}{
		{"empty", nil, nil, nil, nil},
		{"length-mismatch", le(-1), le(-1, -1), []Op{0}, []int64{0}},
		{"half-node", le(1, -1, -1), le(-1, -1, -1), make([]Op, 3), make([]int64, 3)},
		{"self-child", le(0, -1, -1), le(2, -1, -1), make([]Op, 3), make([]int64, 3)},
		{"same-child-twice", le(1, -1, -1), le(1, -1, -1), make([]Op, 3), make([]int64, 3)},
		{"two-parents", le(1, -1, 1, -1, -1), le(2, -1, 4, -1, -1), make([]Op, 5), make([]int64, 5)},
		{"out-of-range", le(9, -1, -1), le(1, -1, -1), make([]Op, 3), make([]int64, 3)},
		{"cycle", le(1, 0, -1), le(2, 2, -1), make([]Op, 3), make([]int64, 3)},
	}
	for _, c := range cases {
		if _, err := NewExpr(c.left, c.right, c.ops, c.vals, opt); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	for _, r := range cycleRows {
		left, right, ops, vals := cycleExpr(r.n, r.c)
		for _, procs := range []int{1, 2} {
			_, err := NewExpr(left, right, ops, vals, listrank.Options{Procs: procs})
			if !errors.Is(err, list.ErrNotList) {
				t.Errorf("%s: err = %v, want a refusal wrapping list.ErrNotList", cycleName(r.n, r.c, procs), err)
			}
		}
	}
}

// cycleExpr is a random full binary expression tree of about n − 2c
// nodes and, beside it, c internal nodes whose left children close a
// cycle, each with a leaf as its right child. Every node has at most
// one parent and only the tree's root has none, so only the scan of
// the tour can refuse it.
func cycleExpr(n, c int) (left, right []int, ops []Op, vals []int64) {
	left, right, ops, vals = randomExpr(max(1, (n-2*c)/2), uint64(n+c), 0.5)
	base := len(left)
	for i := 0; i < c; i++ {
		x := base + 2*i
		left = append(left, base+2*((i+1)%c), -1)
		right = append(right, x+1, -1)
	}
	ops = append(ops, make([]Op, 2*c)...)
	vals = append(vals, make([]int64, 2*c)...)
	return left, right, ops, vals
}

// Property: parallel contraction equals serial evaluation over random
// shapes, seeds and processor counts.
func TestQuickExprEval(t *testing.T) {
	f := func(seed uint64, szRaw uint16, shapeRaw uint8, procsRaw uint8) bool {
		nLeaves := int(szRaw)%2000 + 1
		shape := float64(shapeRaw%11) / 10
		left, right, ops, vals := randomExpr(nLeaves, seed, shape)
		e, err := NewExpr(left, right, ops, vals, listrank.Options{Procs: int(procsRaw)%8 + 1})
		if err != nil {
			return false
		}
		return e.Eval(nil) == e.EvalSerial()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refSubtreeValues computes every node's subtree value by a postorder
// walk, the reference for EvalAll.
func refSubtreeValues(left, right []int, ops []Op, vals []int64, root int) []int64 {
	out := make([]int64, len(left))
	type frame struct {
		v       int
		visited bool
	}
	stack := []frame{{root, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if left[f.v] == -1 {
			out[f.v] = vals[f.v]
			continue
		}
		if !f.visited {
			stack = append(stack, frame{f.v, true}, frame{left[f.v], false}, frame{right[f.v], false})
			continue
		}
		a, b := out[left[f.v]], out[right[f.v]]
		if ops[f.v] == OpAdd {
			out[f.v] = a + b
		} else {
			out[f.v] = a * b
		}
	}
	return out
}

func TestExprEvalAllMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		nLeaves int
		seed    uint64
		shape   float64
	}{
		{1, 1, 0.5}, {2, 2, 0.5}, {3, 3, 0.5},
		{64, 4, 0.0}, {500, 5, 0.9}, {500, 6, 0.0}, {4000, 7, 0.5},
	} {
		left, right, ops, vals := randomExpr(tc.nLeaves, tc.seed, tc.shape)
		e, err := NewExpr(left, right, ops, vals, listrank.Options{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := refSubtreeValues(left, right, ops, vals, e.Root())
		got := e.EvalAll(nil)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("leaves=%d seed=%d shape=%v: subtree[%d] = %d, want %d",
					tc.nLeaves, tc.seed, tc.shape, v, got[v], want[v])
			}
		}
	}
}

func TestExprEvalAllRootAgreesWithEval(t *testing.T) {
	left, right, ops, vals := randomExpr(2000, 23, 0.4)
	e, err := NewExpr(left, right, ops, vals, listrank.Options{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	all := e.EvalAll(nil)
	if all[e.Root()] != e.Eval(nil) {
		t.Fatalf("EvalAll root %d != Eval %d", all[e.Root()], e.Eval(nil))
	}
}

// Property: EvalAll equals the reference on random shapes and
// processor counts — the phase-grouped reverse replay must never read
// an unfilled sibling.
func TestQuickExprEvalAll(t *testing.T) {
	f := func(seed uint64, szRaw uint16, shapeRaw, procsRaw uint8) bool {
		nLeaves := int(szRaw)%1500 + 1
		shape := float64(shapeRaw%11) / 10
		left, right, ops, vals := randomExpr(nLeaves, seed, shape)
		e, err := NewExpr(left, right, ops, vals, listrank.Options{Procs: int(procsRaw)%8 + 1})
		if err != nil {
			return false
		}
		want := refSubtreeValues(left, right, ops, vals, e.Root())
		got := e.EvalAll(nil)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
