package tree

import (
	"errors"
	"math/bits"
	"testing"
	"testing/quick"

	"listrank"
	"listrank/internal/list"
	"listrank/internal/rng"
)

// generalInputs holds NewGeneralExpr's node arrays.
type generalInputs struct {
	left, right      []int
	ops              []Op
	ua, ub, leafVals []int64
}

// newGeneralInputs returns n leaves of value 0.
func newGeneralInputs(n int) *generalInputs {
	in := &generalInputs{left: make([]int, n), right: make([]int, n), ops: make([]Op, n),
		ua: make([]int64, n), ub: make([]int64, n), leafVals: make([]int64, n)}
	for i := range in.left {
		in.left[i], in.right[i] = -1, -1
	}
	return in
}

func (in *generalInputs) new(opt listrank.Options) (*GeneralExpr, error) {
	return NewGeneralExpr(in.left, in.right, in.ops, in.ua, in.ub, in.leafVals, opt)
}

func (in *generalInputs) build(t testing.TB, opt listrank.Options) *GeneralExpr {
	t.Helper()
	e, err := in.new(opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// randomGeneralInputs builds a random tree where every node has 0, 1
// or 2 children (attachment to a random non-full earlier node), with
// random operators, affine coefficients and leaf values.
func randomGeneralInputs(n int, seed uint64) *generalInputs {
	r := rng.New(seed)
	in := newGeneralInputs(n)
	for i := range in.left {
		in.ops[i] = Op(r.Intn(2))
		in.ua[i] = int64(r.Intn(7)) - 3
		in.ub[i] = int64(r.Intn(9)) - 4
		in.leafVals[i] = int64(r.Intn(21)) - 10
	}
	// open lists nodes that can still take a child.
	open := []int{0}
	for v := 1; v < n; v++ {
		k := r.Intn(len(open))
		p := open[k]
		if in.left[p] == -1 {
			in.left[p] = v
		} else {
			in.right[p] = v
			open[k] = open[len(open)-1]
			open = open[:len(open)-1]
		}
		open = append(open, v)
	}
	return in
}

func randomGeneralExpr(t testing.TB, n int, seed uint64, opt listrank.Options) *GeneralExpr {
	t.Helper()
	return randomGeneralInputs(n, seed).build(t, opt)
}

// chainInputs builds a pure unary chain of length n over one leaf —
// the shape rake alone cannot contract.
func chainInputs(n int) *generalInputs {
	in := newGeneralInputs(n)
	for i := 0; i < n-1; i++ {
		in.left[i] = i + 1
		in.ua[i] = int64(i%3) - 1
		in.ub[i] = int64(i % 5)
	}
	in.leafVals[n-1] = 7
	return in
}

func chainExpr(t testing.TB, n int, opt listrank.Options) *GeneralExpr {
	t.Helper()
	return chainInputs(n).build(t, opt)
}

// caterpillarInputs builds a binary spine where every spine node
// hangs one leaf: no unary node, and the deepest tree rake meets.
func caterpillarInputs(spine int) *generalInputs {
	n := 2*spine + 1 // spine nodes + their leaves + terminal leaf
	in := newGeneralInputs(n)
	for i := range in.leafVals {
		in.leafVals[i] = int64(i%7) - 3
	}
	for s := 0; s < spine; s++ {
		node := 2 * s
		leaf := 2*s + 1
		next := 2 * (s + 1)
		if s == spine-1 {
			next = n - 1
		}
		in.left[node], in.right[node] = leaf, next
		in.ops[node] = Op(s % 2)
	}
	return in
}

func caterpillarExpr(t testing.TB, spine int, opt listrank.Options) *GeneralExpr {
	t.Helper()
	return caterpillarInputs(spine).build(t, opt)
}

func TestGeneralExprValidation(t *testing.T) {
	bad := []struct {
		name        string
		left, right []int
	}{
		{"right-only", []int{-1, -1}, []int{1, -1}},
		{"two-parents", []int{1, -1, 1}, []int{-1, -1, -1}}, // node 1 under both 0 and 2
		{"self-child", []int{0}, []int{-1}},
		{"out-of-range", []int{5, -1}, []int{-1, -1}},
	}
	mk := func(l, r []int) error {
		n := len(l)
		_, err := NewGeneralExpr(l, r, make([]Op, n), make([]int64, n), make([]int64, n), make([]int64, n), listrank.Options{})
		return err
	}
	for _, c := range bad {
		if err := mk(c.left, c.right); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	// Two components (node 1 unreachable, cycle-free): 0 is leaf root,
	// 1 and 2 form their own chain → two roots.
	if err := mk([]int{-1, 2, -1}, []int{-1, -1, -1}); err == nil {
		t.Error("two-roots: want error")
	}
	if _, err := NewGeneralExpr(nil, nil, nil, nil, nil, nil, listrank.Options{}); err == nil {
		t.Error("empty: want error")
	}

	// Cycles beside a valid tree: counting refuses a cycle of unary
	// nodes, and the binary tree's leaf numbering one through a binary
	// node; both errors wrap list.ErrNotList. The tree has 1 node (the
	// serial walk numbers the leaves; the first row is
	// left = [-1, 2, 1]) or 2^14 (the engine does).
	unaryCycle := make([][2]int, 1000)
	for i := range unaryCycle {
		unaryCycle[i] = [2]int{(i + 1) % 1000, -1}
	}
	cycles := []struct {
		name  string
		links [][2]int // relative to the component's first node
	}{
		{"unary-cycle", [][2]int{{1, -1}, {0, -1}}},
		{"unary-cycle-1000", unaryCycle},
		{"binary-through-unary-child", [][2]int{{1, 2}, {0, -1}, {-1, -1}}},
		{"two-binary-through-unary", [][2]int{{1, 3}, {2, -1}, {0, 4}, {-1, -1}, {-1, -1}}},
	}
	for _, c := range cycles {
		for _, total := range []int{len(c.links) + 1, 1 << 14} {
			in := randomGeneralInputs(total-len(c.links), 5)
			base := len(in.left)
			shift := func(link int) int {
				if link < 0 {
					return link
				}
				return link + base
			}
			for _, l := range c.links {
				in.left, in.right = append(in.left, shift(l[0])), append(in.right, shift(l[1]))
				in.ops, in.ua, in.ub = append(in.ops, OpAdd), append(in.ua, 2), append(in.ub, 1)
				in.leafVals = append(in.leafVals, 3)
			}
			for _, procs := range []int{1, 2} {
				_, err := in.new(listrank.Options{Procs: procs})
				if !errors.Is(err, list.ErrNotList) {
					t.Errorf("%s/n=%d/p=%d: err = %v, want a refusal wrapping list.ErrNotList", c.name, total, procs, err)
				}
			}
		}
	}
}

func TestGeneralExprSingleLeaf(t *testing.T) {
	e, err := NewGeneralExpr([]int{-1}, []int{-1}, []Op{OpAdd}, []int64{0}, []int64{0}, []int64{42}, listrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var st RakeCompressStats
	if got := e.Eval(&st); got != 42 {
		t.Errorf("Eval = %d, want 42", got)
	}
	if st.Rounds != 0 {
		t.Errorf("Rounds = %d, want 0", st.Rounds)
	}
	if e.EvalSerial() != 42 {
		t.Error("EvalSerial disagrees")
	}
}

func TestGeneralExprChain(t *testing.T) {
	for _, n := range []int{2, 3, 17, 1000, 65536} {
		e := chainExpr(t, n, listrank.Options{Procs: 4})
		var st RakeCompressStats
		want := e.EvalSerial()
		got := e.Eval(&st)
		if got != want {
			t.Fatalf("n=%d: Eval = %d, want %d", n, got, want)
		}
		// The whole chain folds into the leaf's pending function:
		// nothing is left to rake.
		if st.Rounds != 0 || st.Compressed != n-1 || st.FoldedChains != 1 {
			t.Errorf("n=%d: stats %+v, want 0 rounds and one chain of %d", n, st, n-1)
		}
	}
}

func TestGeneralExprCaterpillar(t *testing.T) {
	for _, spine := range []int{1, 2, 50, 4000} {
		e := caterpillarExpr(t, spine, listrank.Options{Procs: 4})
		var st RakeCompressStats
		want := e.EvalSerial()
		got := e.Eval(&st)
		if got != want {
			t.Fatalf("spine=%d: Eval = %d, want %d", spine, got, want)
		}
		// Rake retires about half the spine's leaves per round.
		if bound := 2*bits.Len(uint(spine+1)) + 2; st.Rounds > bound {
			t.Errorf("spine=%d: Rounds = %d, want O(log n) ≤ %d", spine, st.Rounds, bound)
		}
	}
}

func TestGeneralExprRandomShapes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100, 1000, 50000} {
		for seed := uint64(0); seed < 4; seed++ {
			in := randomGeneralInputs(n, seed)
			e := in.build(t, listrank.Options{Procs: 4})
			var st RakeCompressStats
			want := in.refEvalAll()[0] // node 0 is the root
			if got := e.EvalSerial(); got != want {
				t.Fatalf("n=%d seed=%d: EvalSerial = %d, want %d", n, seed, got, want)
			}
			if got := e.Eval(&st); got != want {
				t.Fatalf("n=%d seed=%d: Eval = %d, want %d", n, seed, got, want)
			}
			if n > 2 && st.Rounds > 4*bits.Len(uint(n)) {
				t.Errorf("n=%d seed=%d: Rounds = %d, want O(log n)", n, seed, st.Rounds)
			}
		}
	}
}

func TestGeneralExprMatchesBinaryExpr(t *testing.T) {
	// On a full binary tree (no unary nodes) GeneralExpr and the
	// rake-only Expr must agree.
	r := rng.New(77)
	nLeaves := 512
	n := 2*nLeaves - 1
	left := make([]int, n)
	right := make([]int, n)
	ops := make([]Op, n)
	leafVal := make([]int64, n)
	// Internal nodes 0..nLeaves-2 in heap order, leaves after.
	for i := 0; i < nLeaves-1; i++ {
		left[i] = 2*i + 1
		right[i] = 2*i + 2
		ops[i] = Op(r.Intn(2))
	}
	for i := nLeaves - 1; i < n; i++ {
		left[i], right[i] = -1, -1
		leafVal[i] = int64(r.Intn(11)) - 5
	}
	ge, err := NewGeneralExpr(left, right, ops, make([]int64, n), make([]int64, n), leafVal, listrank.Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewExpr(left, right, ops, leafVal, listrank.Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g, b := ge.Eval(nil), be.Eval(nil); g != b {
		t.Errorf("GeneralExpr = %d, Expr = %d", g, b)
	}
	if g, s := ge.Eval(nil), ge.EvalSerial(); g != s {
		t.Errorf("Eval = %d, EvalSerial = %d", g, s)
	}
}

func TestGeneralExprProcSweep(t *testing.T) {
	e := randomGeneralExpr(t, 20000, 5, listrank.Options{})
	want := e.EvalSerial()
	for _, p := range []int{1, 2, 3, 8, 32} {
		e.opt.Procs = p
		if got := e.Eval(nil); got != want {
			t.Errorf("p=%d: Eval = %d, want %d", p, got, want)
		}
	}
}

func TestGeneralExprRepeatable(t *testing.T) {
	e := randomGeneralExpr(t, 5000, 9, listrank.Options{Procs: 4})
	first := e.Eval(nil)
	for i := 0; i < 3; i++ {
		if got := e.Eval(nil); got != first {
			t.Fatalf("call %d: Eval = %d, want %d (receiver mutated?)", i, got, first)
		}
	}
	if e.EvalSerial() != first {
		t.Error("EvalSerial after Eval disagrees")
	}
}

func TestGeneralExprQuick(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%800)
		e := randomGeneralExpr(t, n, seed, listrank.Options{Procs: 1 + int(seed%5)})
		return e.Eval(nil) == e.EvalSerial()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGeneralExprStatsAccounting(t *testing.T) {
	// Every unary node folds into one chain, one chain hangs above each
	// binary-tree node whose parent is not unary, and rake retires all
	// leaves but the last two.
	for _, n := range []int{1, 2, 3, 3000} {
		in := randomGeneralInputs(n, 13)
		e := in.build(t, listrank.Options{Procs: 4})
		var st RakeCompressStats
		e.Eval(&st)
		parent := in.parents()
		unary, leaves, tops := 0, 0, 0
		for v := 0; v < n; v++ {
			switch {
			case in.left[v] == -1:
				leaves++
			case in.right[v] == -1:
				unary++
				if p := parent[v]; p < 0 || in.right[p] != -1 {
					tops++
				}
			}
		}
		want := RakeCompressStats{Rounds: st.Rounds, Rakes: max(leaves-2, 0), Compressed: unary, FoldedChains: tops}
		if st != want {
			t.Errorf("n=%d: stats %+v, want %+v", n, st, want)
		}
	}
}

// parents returns every node's parent, -1 at the root.
func (in *generalInputs) parents() []int {
	parent := make([]int, len(in.left))
	for v := range parent {
		parent[v] = -1
	}
	for v := range parent {
		for _, c := range [2]int{in.left[v], in.right[v]} {
			if c >= 0 {
				parent[c] = v
			}
		}
	}
	return parent
}

// refEvalAll computes every node's subtree value by explicit postorder
// over the input arrays — the ground truth for Eval and EvalAll,
// independent of how NewGeneralExpr lays the tree out.
func (in *generalInputs) refEvalAll() []int64 {
	val := make([]int64, len(in.left))
	type frame struct {
		v       int
		visited bool
	}
	var stack []frame
	for v, p := range in.parents() {
		if p < 0 {
			stack = append(stack, frame{v, false})
		}
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, l, r := f.v, in.left[f.v], in.right[f.v]
		switch {
		case l == -1:
			val[v] = in.leafVals[v]
		case !f.visited:
			stack = append(stack, frame{v, true}, frame{l, false})
			if r != -1 {
				stack = append(stack, frame{r, false})
			}
		case r == -1:
			val[v] = in.ua[v]*val[l] + in.ub[v]
		case in.ops[v] == OpAdd:
			val[v] = val[l] + val[r]
		default:
			val[v] = val[l] * val[r]
		}
	}
	return val
}

func TestGeneralExprEvalAll(t *testing.T) {
	single := newGeneralInputs(1)
	single.leafVals[0] = 3
	shapes := map[string]*generalInputs{
		"single":  single,
		"chain":   chainInputs(5000),
		"cater":   caterpillarInputs(2000),
		"random":  randomGeneralInputs(20000, 31),
		"random2": randomGeneralInputs(777, 32),
	}
	for name, in := range shapes {
		e := in.build(t, listrank.Options{})
		want := in.refEvalAll()
		for _, procs := range []int{1, 2} {
			e.opt.Procs = procs
			got := e.EvalAll(nil)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s/p=%d: out[%d] = %d, want %d", name, procs, v, got[v], want[v])
				}
			}
			if got[e.Root()] != e.EvalSerial() {
				t.Errorf("%s/p=%d: root value disagrees with EvalSerial", name, procs)
			}
		}
	}
}

func TestGeneralExprEvalAllQuick(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%500)
		in := randomGeneralInputs(n, seed^0x5555)
		want := in.refEvalAll()
		got := in.build(t, listrank.Options{Procs: 1 + int(seed%4)}).EvalAll(nil)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGeneralExprEvalAllRepeatable(t *testing.T) {
	e := randomGeneralExpr(t, 3000, 77, listrank.Options{Procs: 4})
	first := e.EvalAll(nil)
	second := e.EvalAll(nil)
	for v := range first {
		if first[v] != second[v] {
			t.Fatalf("out[%d] changed between calls: %d vs %d", v, first[v], second[v])
		}
	}
}
