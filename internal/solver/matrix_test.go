package solver

import (
	"bytes"
	"slices"
	"testing"

	"licm/internal/expr"
)

// matrix is one AppendMatrix input.
type matrix struct {
	vars int
	obj  []int64
	cons []ExplainCon
}

func (m matrix) encode() []byte { return AppendMatrix(nil, m.vars, m.obj, m.cons) }

func (m matrix) equal(o matrix) bool {
	if m.vars != o.vars || !slices.Equal(m.obj, o.obj) || len(m.cons) != len(o.cons) {
		return false
	}
	for i := range m.cons {
		a, b := &m.cons[i], &o.cons[i]
		if a.Op != b.Op || a.RHS != b.RHS || !slices.Equal(a.Vars, b.Vars) || !slices.Equal(a.Coef, b.Coef) {
			return false
		}
	}
	return true
}

// TestAppendMatrixDelimits: pairs of different inputs whose varints
// line up once a length prefix is missing. Each must encode apart, and
// neither encoding may be a prefix of the other, since the reuse key
// appends the derived flags after it.
func TestAppendMatrixDelimits(t *testing.T) {
	cases := []struct {
		name string
		a, b matrix
	}{
		{
			// Without the objective's length, b's objective entry 2
			// reads as a's row count.
			name: "objective entries against rows",
			a:    matrix{vars: 1, cons: []ExplainCon{{Op: expr.GE}, {Op: expr.GE}}},
			b:    matrix{vars: 1, obj: []int64{2}, cons: []ExplainCon{{Op: expr.LE, Vars: []int32{0}, Coef: []int64{0}}}},
		},
		{
			// Without each row's term count, a's first row takes the
			// term that b's second row holds.
			name: "row boundaries",
			a: matrix{vars: 2, cons: []ExplainCon{
				{Op: expr.LE, RHS: 5, Vars: []int32{1}, Coef: []int64{2}},
				{Op: expr.GE, RHS: 3},
			}},
			b: matrix{vars: 2, cons: []ExplainCon{
				{Op: expr.LE, RHS: 5},
				{Op: expr.GE, RHS: 2, Vars: []int32{1}, Coef: []int64{3}},
			}},
		},
		{
			// Without the row count, a's encoding is a prefix of b's,
			// and b's last row could pass for derived flags.
			name: "end of the row list",
			a:    matrix{vars: 2, obj: []int64{1, 1}, cons: []ExplainCon{{Op: expr.LE, RHS: 1, Vars: []int32{0, 1}, Coef: []int64{1, 1}}}},
			b: matrix{vars: 2, obj: []int64{1, 1}, cons: []ExplainCon{
				{Op: expr.LE, RHS: 1, Vars: []int32{0, 1}, Coef: []int64{1, 1}},
				{Op: expr.LE, RHS: 0},
			}},
		},
	}
	for _, tc := range cases {
		ea, eb := tc.a.encode(), tc.b.encode()
		if bytes.HasPrefix(ea, eb) || bytes.HasPrefix(eb, ea) {
			t.Errorf("%s: encodings %x and %x, one a prefix of the other", tc.name, ea, eb)
		}
	}
}

// decodeMatrix reads a small component from fuzzer bytes, one byte per
// count and two per value (so values span one- to three-byte varints);
// bytes past the end read as zero.
func decodeMatrix(data []byte) (matrix, []bool) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	val := func() int64 { return int64(int16(uint16(next())<<8 | uint16(next()))) }
	m := matrix{vars: int(next() % 8)}
	for i := int(next() % 5); i > 0; i-- {
		m.obj = append(m.obj, val())
	}
	for i := int(next() % 4); i > 0; i-- {
		c := ExplainCon{Op: expr.Op(next() % 3), RHS: val()}
		for k := int(next() % 4); k > 0; k-- {
			c.Vars = append(c.Vars, int32(next()%8))
			c.Coef = append(c.Coef, val())
		}
		m.cons = append(m.cons, c)
	}
	var der []bool
	for i := int(next() % 4); i > 0; i-- {
		der = append(der, next()%2 == 1)
	}
	return m, der
}

// FuzzMatrixEncoding checks that AppendMatrix, and the reuse key built
// on it, give equal bytes exactly when the inputs are equal: a
// collision would hand one component another's outcome within a solve
// and bind a certificate to the wrong matrix.
func FuzzMatrixEncoding(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 0, 0, 0, 1, 0, 0, 0}, []byte{1, 1, 0, 2, 1, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{2, 0, 2, 0, 0, 5, 1, 1, 0, 2, 1, 0, 3, 0}, []byte{2, 0, 2, 0, 0, 5, 0, 1, 0, 2, 1, 1, 0, 3})
	f.Add([]byte{3, 3, 0, 1, 0, 1, 0, 1, 1}, []byte{3, 3, 0, 1, 0, 1, 0, 1, 2, 1, 1})
	f.Fuzz(func(t *testing.T, x, y []byte) {
		a, derA := decodeMatrix(x)
		b, derB := decodeMatrix(y)
		if eq, same := a.equal(b), bytes.Equal(a.encode(), b.encode()); eq != same {
			t.Fatalf("inputs equal %v, encodings equal %v:\n  %+v\n  %+v", eq, same, a, b)
		}
		ka := appendSearchKey(nil, &ExplainComp{Vars: a.vars, Obj: a.obj, Cons: a.cons}, derA)
		kb := appendSearchKey(nil, &ExplainComp{Vars: b.vars, Obj: b.obj, Cons: b.cons}, derB)
		if eq, same := a.equal(b) && slices.Equal(derA, derB), bytes.Equal(ka, kb); eq != same {
			t.Fatalf("inputs and flags equal %v, keys equal %v:\n  %+v %v\n  %+v %v", eq, same, a, derA, b, derB)
		}
	})
}
