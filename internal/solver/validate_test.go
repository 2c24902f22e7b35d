package solver

import (
	"context"
	"strings"
	"testing"

	"licm/internal/expr"
)

// TestValidateTable exercises every Validate error path, including the
// malformed expressions only expr.RawLin can build (the public expr
// constructors always normalize).
func TestValidateTable(t *testing.T) {
	raw := func(terms ...expr.Term) expr.Lin { return expr.RawLin(0, terms) }
	cases := []struct {
		name    string
		p       Problem
		wantErr string // substring; "" means valid
	}{
		{
			name: "valid",
			p: Problem{
				NumVars: 3,
				Constraints: []expr.Constraint{
					expr.NewConstraint(expr.Sum(0, 1, 2), expr.GE, 1),
				},
				Objective: expr.Sum(0, 2),
			},
		},
		{
			name: "valid empty",
			p:    Problem{},
		},
		{
			name:    "negative NumVars",
			p:       Problem{NumVars: -4},
			wantErr: "NumVars is negative",
		},
		{
			name: "derived length mismatch",
			p: Problem{
				NumVars: 3,
				Derived: []bool{false, true},
			},
			wantErr: "Derived has length 2, want 3",
		},
		{
			name: "objective variable out of range",
			p: Problem{
				NumVars:   2,
				Objective: expr.Sum(0, 5),
			},
			wantErr: "objective references variable b5 outside [0,2)",
		},
		{
			name: "constraint variable out of range",
			p: Problem{
				NumVars: 2,
				Constraints: []expr.Constraint{
					expr.NewConstraint(expr.Sum(1, 2), expr.LE, 1),
				},
			},
			wantErr: "constraint 0 references variable b2",
		},
		{
			name: "negative variable id",
			p: Problem{
				NumVars: 2,
				Constraints: []expr.Constraint{
					{Lin: raw(expr.Term{Var: -1, Coef: 1}), Op: expr.LE, RHS: 1},
				},
			},
			wantErr: "references variable b-1",
		},
		{
			name: "zero-coefficient term in objective",
			p: Problem{
				NumVars:   2,
				Objective: raw(expr.Term{Var: 0, Coef: 0}),
			},
			wantErr: "objective has a zero-coefficient term for b0",
		},
		{
			name: "zero-coefficient term in constraint",
			p: Problem{
				NumVars: 2,
				Constraints: []expr.Constraint{
					{Lin: raw(expr.Term{Var: 0, Coef: 1}, expr.Term{Var: 1, Coef: 0}), Op: expr.GE, RHS: 0},
				},
			},
			wantErr: "constraint 0 has a zero-coefficient term for b1",
		},
		{
			name: "duplicate variable terms",
			p: Problem{
				NumVars: 2,
				Constraints: []expr.Constraint{
					{Lin: raw(expr.Term{Var: 1, Coef: 1}, expr.Term{Var: 1, Coef: 2}), Op: expr.EQ, RHS: 1},
				},
			},
			wantErr: "constraint 0 has duplicate terms for b1",
		},
		{
			name: "unsorted terms",
			p: Problem{
				NumVars: 3,
				Constraints: []expr.Constraint{
					{Lin: raw(expr.Term{Var: 2, Coef: 1}, expr.Term{Var: 0, Coef: 1}), Op: expr.LE, RHS: 1},
				},
			},
			wantErr: "constraint 0 terms are not sorted",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestSolveRejectsMalformed confirms malformed problems are rejected
// by the full solve entry points, not just by Validate directly.
func TestSolveRejectsMalformed(t *testing.T) {
	p := &Problem{NumVars: -1}
	if _, err := Maximize(context.Background(), p, DefaultOptions()); err == nil {
		t.Fatal("Maximize accepted a malformed problem")
	}
	if _, err := Minimize(context.Background(), p, DefaultOptions()); err == nil {
		t.Fatal("Minimize accepted a malformed problem")
	}
}
