package listrank_test

import (
	"fmt"

	"listrank"
)

// The list 2 → 0 → 1: vertex 2 is the head, vertex 1 the tail.
func ExampleRank() {
	l := listrank.FromOrder([]int{2, 0, 1})
	ranks := listrank.Rank(l)
	fmt.Println(ranks[2], ranks[0], ranks[1])
	// Output: 0 1 2
}

func ExampleScan() {
	l := listrank.FromOrder([]int{2, 0, 1})
	l.Value[2], l.Value[0], l.Value[1] = 10, 20, 30
	sums := listrank.Scan(l) // exclusive prefix sums in list order
	fmt.Println(sums[2], sums[0], sums[1])
	// Output: 0 10 30
}

func ExampleScanOpWith() {
	l := listrank.FromOrder([]int{0, 1, 2, 3})
	l.Value[0], l.Value[1], l.Value[2], l.Value[3] = 5, 2, 9, 1
	maxOp := func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	const negInf = int64(-1 << 62)
	runningMax := listrank.ScanOpWith(l, maxOp, negInf, listrank.Options{})
	// The running maximum of all values strictly before each vertex.
	fmt.Println(runningMax[1], runningMax[2], runningMax[3])
	// Output: 5 5 9
}

func ExampleRankWith() {
	l := listrank.NewRandomList(100000, 7)
	serialRanks := listrank.RankWith(l, listrank.Options{Algorithm: listrank.Serial})
	parallel := listrank.RankWith(l, listrank.Options{Algorithm: listrank.Sublist, Procs: 4})
	same := true
	for i := range serialRanks {
		if serialRanks[i] != parallel[i] {
			same = false
		}
	}
	fmt.Println("algorithms agree:", same)
	// Output: algorithms agree: true
}

func ExampleRankAll() {
	// A pool of independent lists ranks with across-list parallelism.
	pool := []*listrank.List{
		listrank.NewOrderedList(3),
		listrank.NewOrderedList(2),
	}
	out := listrank.RankAll(pool, listrank.Options{Procs: 2})
	fmt.Println(out[0], out[1])
	// Output: [0 1 2] [0 1]
}

func ExampleScanValues() {
	// The paper defines list scan for any associative "sum" (§2);
	// ScanValues delivers that generality. Compose affine functions
	// f(x) = A·x + B along the list — associative, non-commutative.
	l := listrank.FromOrder([]int{2, 0, 1}) // visits 2, then 0, then 1
	type affine struct{ A, B int64 }
	vals := []affine{{2, 1}, {3, 0}, {1, 5}} // indexed by vertex
	compose := func(f, g affine) affine { return affine{f.A * g.A, f.A*g.B + f.B} }

	out := listrank.ScanValues(l, vals, compose, affine{1, 0}, listrank.Options{})
	// out[v] folds the functions of all vertices before v in list
	// order, earlier vertices outermost: before vertex 1 come vertex 2
	// (x+5) and vertex 0 (2x+1), giving (x+5)∘(2x+1) = 2x+6.
	fmt.Printf("%+v\n", out[1])
	// Output: {A:2 B:6}
}
