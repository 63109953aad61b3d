package tree

import (
	"errors"
	"testing"
	"testing/quick"

	"listrank"
	"listrank/internal/list"
)

// edgesOf converts a parent array into an undirected edge list with a
// deterministic but scrambled edge order and orientation.
func edgesOf(parent []int, seed uint64) [][2]int {
	edges := make([][2]int, 0, len(parent)-1)
	for v, p := range parent {
		if p == -1 {
			continue
		}
		if seed%3 == 0 {
			edges = append(edges, [2]int{v, p})
		} else {
			edges = append(edges, [2]int{p, v})
		}
		seed = seed*6364136223846793005 + 1442695040888963407
	}
	// Scramble edge order.
	for i := len(edges) - 1; i > 0; i-- {
		seed = seed*6364136223846793005 + 1442695040888963407
		j := int(seed % uint64(i+1))
		edges[i], edges[j] = edges[j], edges[i]
	}
	return edges
}

func TestRootAtRecoversParent(t *testing.T) {
	for name, parent := range lcaTrees(t) {
		n := len(parent)
		root := -1
		for v, p := range parent {
			if p == -1 {
				root = v
			}
		}
		edges := edgesOf(parent, 99)
		got, err := RootAt(n, edges, root, listrank.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range parent {
			if got[v] != parent[v] {
				t.Fatalf("%s: parent[%d] = %d, want %d", name, v, got[v], parent[v])
			}
		}
	}
}

func TestRootAtAnyRoot(t *testing.T) {
	// Rooting at a different vertex must produce a valid tree with the
	// requested root whose undirected edge set is unchanged.
	parent := randomParent(300, 21, 0.5)
	edges := edgesOf(parent, 5)
	for _, root := range []int{0, 7, 150, 299} {
		got, err := RootAt(300, edges, root, listrank.Options{})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if got[root] != -1 {
			t.Fatalf("root %d: parent[root] = %d", root, got[root])
		}
		// Same undirected edges.
		type ue struct{ a, b int }
		want := make(map[ue]int)
		norm := func(a, b int) ue {
			if a > b {
				a, b = b, a
			}
			return ue{a, b}
		}
		for _, e := range edges {
			want[norm(e[0], e[1])]++
		}
		for v, p := range got {
			if p == -1 {
				continue
			}
			want[norm(v, p)]--
		}
		for k, c := range want {
			if c != 0 {
				t.Fatalf("root %d: edge %v count off by %d", root, k, c)
			}
		}
		// And it is a tree: New validates.
		if _, err := New(got, listrank.Options{}); err != nil {
			t.Fatalf("root %d: result is not a tree: %v", root, err)
		}
	}
}

func TestRootAtSingleVertex(t *testing.T) {
	got, err := RootAt(1, nil, 0, listrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != -1 {
		t.Fatalf("got %v, want [-1]", got)
	}
}

func TestRootAtRejectsBadInput(t *testing.T) {
	opt := listrank.Options{}
	cases := []struct {
		name  string
		n     int
		edges [][2]int
		root  int
	}{
		{"zero-n", 0, nil, 0},
		{"bad-root", 2, [][2]int{{0, 1}}, 5},
		{"wrong-count", 3, [][2]int{{0, 1}}, 0},
		{"self-loop", 2, [][2]int{{1, 1}}, 0},
		{"out-of-range", 2, [][2]int{{0, 9}}, 0},
		{"duplicate-edge", 3, [][2]int{{0, 1}, {0, 1}}, 0},
		{"cycle-plus-isolated", 4, [][2]int{{0, 1}, {1, 2}, {2, 0}}, 0},
		{"isolated-root", 4, [][2]int{{0, 1}, {1, 2}, {2, 0}}, 3},
		{"two-components", 4, [][2]int{{0, 1}, {2, 3}, {3, 2}}, 0},
	}
	for _, c := range cases {
		if _, err := RootAt(c.n, c.edges, c.root, opt); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	for _, r := range cycleRows {
		edges := cycleEdges(r.n, r.c)
		for _, procs := range []int{1, 2} {
			_, err := RootAt(r.n, edges, 0, listrank.Options{Procs: procs})
			if !errors.Is(err, list.ErrNotList) {
				t.Errorf("%s: err = %v, want a refusal wrapping list.ErrNotList", cycleName(r.n, r.c, procs), err)
			}
		}
	}
}

// cycleEdges is the edge list of a random tree on vertices [0, n−c)
// and a cycle through the other c vertices (for c = 2, one edge
// twice): n−1 edges, each in range and no self-loop, so only the rank
// of the circuit can refuse them.
func cycleEdges(n, c int) [][2]int {
	edges := edgesOf(randomParent(n-c, uint64(n+c), 0.5), uint64(c))
	for i := 0; i < c; i++ {
		edges = append(edges, [2]int{n - c + i, n - c + (i+1)%c})
	}
	return edges
}

// Property: for random trees and random roots, RootAt agrees with a
// BFS rooting.
func TestQuickRootAt(t *testing.T) {
	f := func(seed uint64, szRaw, rootRaw uint16) bool {
		n := int(szRaw)%1000 + 2
		parent := randomParent(n, seed, 0.5)
		edges := edgesOf(parent, seed)
		root := int(rootRaw) % n
		got, err := RootAt(n, edges, root, listrank.Options{})
		if err != nil {
			return false
		}
		// BFS from root over the undirected adjacency.
		adj := make([][]int, n)
		for _, e := range edges {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		want := make([]int, n)
		for i := range want {
			want[i] = -2
		}
		want[root] = -1
		queue := []int{root}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if want[v] == -2 {
					want[v] = u
					queue = append(queue, v)
				}
			}
		}
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
