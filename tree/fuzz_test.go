package tree

import (
	"testing"

	"listrank"
)

// decodeGeneralExpr turns fuzz bytes into NewGeneralExpr's arrays: the
// first byte picks n ≤ 64, then four bytes per node give its left and
// right links in [−1, n] (n itself is out of range), its operator (255
// is an unknown one) and its coefficients, and its leaf value. Missing
// bytes read as 0, a link of −1.
func decodeGeneralExpr(data []byte) *generalInputs {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := int(at(0)) % 65
	in := newGeneralInputs(n)
	for v := 0; v < n; v++ {
		l, r, c, x := at(1+4*v), at(2+4*v), at(3+4*v), at(4+4*v)
		in.left[v] = int(l)%(n+2) - 1
		in.right[v] = int(r)%(n+2) - 1
		in.ops[v] = Op(c & 1)
		if c == 255 {
			in.ops[v] = 2
		}
		in.ua[v] = int64(c%7) - 3
		in.ub[v] = int64(c/7%9) - 4
		in.leafVals[v] = int64(x%21) - 10
	}
	return in
}

// encodeGeneralLinks is decodeGeneralExpr's inverse for links (with
// operator +, coefficients 2·x + 1 and leaf values 3), for seeds.
func encodeGeneralLinks(left, right []int) []byte {
	n := len(left)
	data := []byte{byte(n)}
	for v := range left {
		data = append(data, byte(min(left[v], n)+1), byte(min(right[v], n)+1), 40, 13)
	}
	return data
}

// FuzzGeneralExpr: at Procs 1 and 2 NewGeneralExpr either refuses the
// arrays or builds a tree whose Eval matches EvalSerial and whose
// EvalAll matches the postorder reference over the arrays; nothing
// panics.
func FuzzGeneralExpr(f *testing.F) {
	seeds := [][2][]int{
		{{-1, -1}, {1, -1}},                                           // right-only
		{{1, -1, 1}, {-1, -1, -1}},                                    // two parents
		{{0}, {-1}},                                                   // self-child
		{{5, -1}, {-1, -1}},                                           // out of range
		{{-1, 2, -1}, {-1, -1, -1}},                                   // two roots
		{{-1, 2, 1}, {-1, -1, -1}},                                    // unary cycle
		{{-1, 2, 1, -1}, {-1, 3, -1, -1}},                             // binary node cycled through a unary child
		{{-1, 2, 3, 1, -1, -1}, {-1, 4, -1, 5, -1, -1}},               // two binary nodes cycled through a unary node
		{{1, 3, -1, 4, -1, -1}, {2, -1, -1, 5, -1, -1}},               // valid: binary, unary, binary
		{{1, 2, 3, -1}, {-1, -1, -1, -1}},                             // valid chain
		{{-1}, {-1}},                                                  // single leaf
		{{1, -1, 3, -1, -1}, {2, -1, 4, -1, -1}},                      // valid full binary
		{{1, 2, -1, 4, -1, -1}, {-1, 3, -1, 5, -1, -1}},               // valid: unary over binary
		{{1, -1, -1}, {2, -1, -1}},                                    // valid: one binary node
		{{2, -1, 1}, {-1, -1, -1}},                                    // valid: chain out of order
		{{-1, 0, 1, 2, 3, 4, 5, 6}, {-1, -1, -1, -1, -1, -1, -1, -1}}, // valid: chain rooted last
	}
	for _, s := range seeds {
		f.Add(encodeGeneralLinks(s[0], s[1]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeGeneralExpr(data)
		for _, procs := range []int{1, 2} {
			e, err := in.new(listrank.Options{Procs: procs})
			if err != nil {
				continue
			}
			want := in.refEvalAll()
			if got, ser := e.Eval(nil), e.EvalSerial(); got != ser || got != want[e.Root()] {
				t.Fatalf("p=%d: Eval = %d, EvalSerial = %d, reference %d", procs, got, ser, want[e.Root()])
			}
			got := e.EvalAll(nil)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("p=%d: EvalAll[%d] = %d, want %d", procs, v, got[v], want[v])
				}
			}
		}
	})
}
