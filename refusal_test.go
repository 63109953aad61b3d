package listrank_test

import (
	"errors"
	"fmt"
	"testing"

	"listrank"
	"listrank/tree"
)

// TestRefusalIsErrNotList: a list that is not one chain is refused
// with an error for which errors.Is(_, listrank.ErrNotList) holds at
// every entry point, at Procs 1 and 2, on both sides of the serial
// cutoff (4096 vertices): the package's calls, the segmented and
// out-of-core engines, a Server's Wait, and package tree's
// constructors, whose malformed trees leave their tours not one chain.
func TestRefusalIsErrNotList(t *testing.T) {
	for _, n := range []int{1000, 1 << 14} {
		// A random list whose vertex at position n/2 links back two
		// places: a 3-cycle, and the tail cut off.
		bad := listrank.NewRandomList(n, 3)
		order := make([]int64, n)
		for v, r := range listrank.RankWith(bad, listrank.Options{Algorithm: listrank.Serial}) {
			order[r] = int64(v)
		}
		bad.Next[order[n/2]] = order[n/2-2]

		// A parent array with a 2-cycle off a path.
		parent := make([]int, n)
		for v := range parent {
			parent[v] = v - 1
		}
		parent[n/2], parent[n/2+1] = n/2+1, n/2
		// The path's edges with one replaced by a triangle's third side:
		// n−1 edges, one vertex cut off.
		edges := make([][2]int, n-1)
		for v := 1; v < n; v++ {
			edges[v-1] = [2]int{v - 1, v}
		}
		edges[n-2] = [2]int{n/2 - 2, n / 2}
		// A full binary expression tree beside a component with no
		// root, in which two binary nodes x and y are each other's
		// left child — through a unary node u in the general one.
		expr := func(component [][2]int) (left, right []int) {
			m := n - 5 // odd: a full binary heap
			for v := 0; v < m; v++ {
				if 2*v+2 < m {
					left, right = append(left, 2*v+1), append(right, 2*v+2)
				} else {
					left, right = append(left, -1), append(right, -1)
				}
			}
			for _, l := range component {
				for i, link := range l {
					if link >= 0 {
						l[i] = link + m
					}
				}
				left, right = append(left, l[0]), append(right, l[1])
			}
			return left, right
		}
		left, right := expr([][2]int{{1, 2}, {0, 3}, {-1, -1}, {-1, -1}})
		leftGE, rightGE := expr([][2]int{{1, 3}, {2, -1}, {0, 4}, {-1, -1}, {-1, -1}})
		nx, ng := len(left), len(leftGE)

		for _, procs := range []int{1, 2} {
			opt := listrank.Options{Procs: procs}
			dst := make([]int64, n)
			refusals := map[string]func() error{
				"Engine.RankInto": func() error {
					return recovered(func() { listrank.NewEngine().RankInto(dst, bad, opt) })
				},
				"RankWith": func() error {
					return recovered(func() { listrank.RankWith(bad, opt) })
				},
				"scanValuesRanked": func() error {
					return recovered(func() { listrank.ScanValuesRanked(bad, bad.Value, opt) })
				},
				"SegmentedRankInto": func() error {
					return recovered(func() {
						listrank.SegmentedRankInto(dst, bad, listrank.SegmentedOptions{Segments: 4, Procs: procs})
					})
				},
				"OutOfCoreList.Rank": func() error {
					o, err := listrank.NewOutOfCoreList(n, listrank.OutOfCoreOptions{Dir: t.TempDir(), Procs: procs})
					if err != nil {
						t.Fatal(err)
					}
					defer o.Close()
					if err := o.Append(bad.Next, nil); err != nil {
						t.Fatal(err)
					}
					return o.Rank(bad.Head)
				},
				"Server.Wait": func() error {
					s := listrank.NewServer(listrank.ServerOptions{Procs: procs})
					defer s.Close()
					_, err := s.Submit(listrank.Request{Op: listrank.OpRank, List: bad}).Wait()
					if !errors.Is(err, listrank.ErrPanic) {
						t.Errorf("Server.Wait: err = %v, want it to wrap ErrPanic too", err)
					}
					return err
				},
				"tree.New": func() error {
					_, err := tree.New(parent, opt)
					return err
				},
				"tree.RootAt": func() error {
					_, err := tree.RootAt(n, edges, 0, opt)
					return err
				},
				"tree.NewExpr": func() error {
					_, err := tree.NewExpr(left, right, make([]tree.Op, nx), make([]int64, nx), opt)
					return err
				},
				"tree.NewGeneralExpr": func() error {
					_, err := tree.NewGeneralExpr(leftGE, rightGE, make([]tree.Op, ng),
						make([]int64, ng), make([]int64, ng), make([]int64, ng), opt)
					return err
				},
			}
			for name, refuse := range refusals {
				if err := refuse(); !errors.Is(err, listrank.ErrNotList) {
					t.Errorf("%s n=%d p=%d: err = %v, want a refusal wrapping ErrNotList", name, n, procs, err)
				}
			}
		}
	}
}

// recovered runs f and returns the error it panicked with.
func recovered(f func()) (err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = r
		default:
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	f()
	return nil
}
