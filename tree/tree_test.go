package tree

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"listrank"
	"listrank/internal/list"
)

// reference computes all statistics by a sequential DFS.
type reference struct {
	depth, pre, post, size []int64
}

func refCompute(parent []int) reference {
	n := len(parent)
	children := make([][]int, n)
	root := -1
	for v, p := range parent {
		if p == -1 {
			root = v
		} else {
			children[p] = append(children[p], v)
		}
	}
	ref := reference{
		depth: make([]int64, n), pre: make([]int64, n),
		post: make([]int64, n), size: make([]int64, n),
	}
	preCtr, postCtr := int64(0), int64(0)
	type frame struct{ v, i int }
	stack := []frame{{root, 0}}
	ref.pre[root] = preCtr
	preCtr++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(children[f.v]) {
			c := children[f.v][f.i]
			f.i++
			ref.depth[c] = ref.depth[f.v] + 1
			ref.pre[c] = preCtr
			preCtr++
			stack = append(stack, frame{c, 0})
			continue
		}
		ref.post[f.v] = postCtr
		postCtr++
		ref.size[f.v] = 1
		for _, c := range children[f.v] {
			ref.size[f.v] += ref.size[c]
		}
		stack = stack[:len(stack)-1]
	}
	return ref
}

// randomParent builds a random tree's parent array; shape biased
// between chains and stars by mix.
func randomParent(n int, seed uint64, mix float64) []int {
	state := seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	parent := make([]int, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		if float64(next()%1000)/1000 < mix {
			parent[v] = v - 1
		} else {
			parent[v] = int(next() % uint64(v))
		}
	}
	return parent
}

func checkAll(t *testing.T, parent []int) {
	t.Helper()
	tr, err := New(parent, listrank.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ref := refCompute(parent)
	for name, pair := range map[string][2][]int64{
		"depth": {tr.Depths(), ref.depth},
		"pre":   {tr.Preorder(), ref.pre},
		"post":  {tr.Postorder(), ref.post},
		"size":  {tr.SubtreeSizes(), ref.size},
	} {
		got, want := pair[0], pair[1]
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s[%d] = %d, want %d", name, v, got[v], want[v])
			}
		}
	}
}

func TestSingleVertex(t *testing.T) {
	checkAll(t, []int{-1})
}

func TestSmallKnownTree(t *testing.T) {
	//        0
	//       / \
	//      1   2
	//     /|   |
	//    3 4   5
	checkAll(t, []int{-1, 0, 0, 1, 1, 2})
	tr, _ := New([]int{-1, 0, 0, 1, 1, 2}, listrank.Options{})
	if tr.Root() != 0 || tr.Len() != 6 {
		t.Fatal("metadata wrong")
	}
	if !tr.IsAncestor(0, 5) || !tr.IsAncestor(1, 4) || !tr.IsAncestor(3, 3) {
		t.Error("IsAncestor false negatives")
	}
	if tr.IsAncestor(1, 5) || tr.IsAncestor(3, 1) || tr.IsAncestor(2, 4) {
		t.Error("IsAncestor false positives")
	}
}

func TestChain(t *testing.T) {
	n := 3000
	parent := make([]int, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = v - 1
	}
	checkAll(t, parent)
}

func TestStar(t *testing.T) {
	n := 3000
	parent := make([]int, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = 0
	}
	checkAll(t, parent)
}

func TestBinaryTree(t *testing.T) {
	n := 4095
	parent := make([]int, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = (v - 1) / 2
	}
	checkAll(t, parent)
}

func TestRandomTrees(t *testing.T) {
	for _, n := range []int{2, 17, 1000, 50000} {
		for _, mix := range []float64{0, 0.5, 0.95} {
			checkAll(t, randomParent(n, uint64(n)+uint64(mix*100), mix))
		}
	}
}

func TestRandomRoot(t *testing.T) {
	// Root need not be vertex 0.
	parent := []int{3, 3, 1, -1, 1}
	checkAll(t, parent)
}

func TestQuickTrees(t *testing.T) {
	f := func(seed uint64, nn uint16, mixB uint8) bool {
		n := int(nn%2000) + 1
		parent := randomParent(n, seed, float64(mixB)/255)
		tr, err := New(parent, listrank.Options{Seed: seed})
		if err != nil {
			return false
		}
		ref := refCompute(parent)
		size := tr.SubtreeSizes()
		pre := tr.Preorder()
		for v := 0; v < n; v++ {
			if size[v] != ref.size[v] || pre[v] != ref.pre[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInvariants(t *testing.T) {
	parent := randomParent(5000, 11, 0.6)
	tr, err := New(parent, listrank.Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pre := tr.Preorder()
	post := tr.Postorder()
	size := tr.SubtreeSizes()
	depth := tr.Depths()
	n := tr.Len()
	// pre and post are permutations.
	seenPre := make([]bool, n)
	seenPost := make([]bool, n)
	for v := 0; v < n; v++ {
		if seenPre[pre[v]] || seenPost[post[v]] {
			t.Fatal("orders not permutations")
		}
		seenPre[pre[v]] = true
		seenPost[post[v]] = true
		// pre(v) + size(v) - 1 = pre of v's last descendant;
		// post(v) = pre(v) + size(v) - 1 - depth... instead use the
		// classic: post(v) - pre(v) = size(v) - 1 - (depth-related)?
		// Robust invariant: size(root) = n; every non-root smaller.
	}
	if size[tr.Root()] != int64(n) {
		t.Fatal("root subtree size != n")
	}
	for v := 0; v < n; v++ {
		if p := parent[v]; p != -1 {
			if !(size[v] < size[p]) {
				t.Fatalf("size[%d] not below parent's", v)
			}
			if depth[v] != depth[p]+1 {
				t.Fatalf("depth[%d] inconsistent", v)
			}
			if !(pre[p] < pre[v] && post[p] > post[v]) {
				t.Fatalf("pre/post nesting violated at %d", v)
			}
		}
	}
}

func TestErrors(t *testing.T) {
	cases := map[string][]int{
		"empty":       {},
		"no root":     {0, 0},
		"two roots":   {-1, -1},
		"self parent": {-1, 1},
		"range":       {-1, 7},
		"cycle":       {-1, 2, 1},
	}
	for name, parent := range cases {
		if _, err := New(parent, listrank.Options{}); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	for _, r := range cycleRows {
		parent := cycleParent(r.n, r.c)
		for _, procs := range []int{1, 2} {
			_, err := New(parent, listrank.Options{Procs: procs})
			if !errors.Is(err, list.ErrNotList) {
				t.Errorf("%s: err = %v, want a refusal wrapping list.ErrNotList", cycleName(r.n, r.c, procs), err)
			}
		}
	}
}

// cycleRows are the large malformed rows of TestErrors,
// TestRootAtRejectsBadInput and TestNewExprRejectsBadInput: a valid
// tree of about n vertices beside a cycle of c. A tour of 2^14
// vertices is ranked by the sublist engine, whose Phase 2 walks; at
// 2^20 Phase 2 runs the engine one level down. No walk checks the tour
// first, so only the rank can refuse it. A short cycle seldom holds a
// splitter, so the stream finds its vertices unrecorded; a long one
// leaves a cycle in the reduced list for Phase 2 to refuse.
var cycleRows = []struct{ n, c int }{
	{1 << 14, 2}, {1 << 14, 3}, {1 << 14, 1000}, {1 << 14, 1 << 13},
	{1 << 20, 2}, {1 << 20, 1 << 19},
}

// cycleParent is a random tree on vertices [0, n−c) and, beside it, a
// cycle of parent links through the other c vertices, which the root
// does not reach.
func cycleParent(n, c int) []int {
	parent := append(randomParent(n-c, uint64(n+c), 0.5), make([]int, c)...)
	for i := 0; i < c; i++ {
		parent[n-c+i] = n - c + (i+1)%c
	}
	return parent
}

// cycleName labels one large malformed row.
func cycleName(n, c, procs int) string {
	return fmt.Sprintf("n=%d off-root %d-cycle procs %d", n, c, procs)
}

// TestAlgorithmChoices: a tree accepts either Algorithm. Its list
// ranking runs on an engine — the serial walk for Serial, the sublist
// algorithm otherwise — and the depths must match the reference
// computation.
func TestAlgorithmChoices(t *testing.T) {
	parent := randomParent(20000, 13, 0.5)
	ref := refCompute(parent)
	for _, alg := range []listrank.Algorithm{listrank.Sublist, listrank.Serial} {
		tr, err := New(parent, listrank.Options{Algorithm: alg, Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		got := tr.Depths()
		for v := range ref.depth {
			if got[v] != ref.depth[v] {
				t.Fatalf("alg %v: depth[%d] wrong", alg, v)
			}
		}
	}
}

func BenchmarkTreeDepths1M(b *testing.B) {
	parent := randomParent(1<<20, 15, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := New(parent, listrank.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = tr.Depths()
	}
}

func BenchmarkTreeAllStats1M(b *testing.B) {
	parent := randomParent(1<<20, 16, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := New(parent, listrank.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = tr.Preorder()
		_ = tr.Postorder()
		_ = tr.SubtreeSizes()
	}
}
