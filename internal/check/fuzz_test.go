package check_test

// Consistency fuzzing for the static diagnostics pass, backing the
// soundness contract in two ways:
//
//   - FuzzCheckSound: on arbitrary random small stores, any
//     ProvenInfeasible report must agree with brute-force enumeration
//     of all 2^n worlds (an ERROR diagnostic is a proof, never a
//     heuristic).
//
//   - FuzzCheckSolverAgree: on stores drawn from the structured
//     families the pass is exact for (constraints over variable-
//     disjoint groups: arbitrary small-coefficient sets of <= 8
//     variables, which the activation mask decides exactly, and
//     all-unit cardinality groups of any size, which the count
//     interval decides exactly), the verdict must agree with the BIP
//     solver in both directions: an ERROR diagnostic implies
//     solver.ErrInfeasible, and an error-free report implies the
//     solver finds an optimum.

import (
	"context"
	"errors"
	"testing"

	"licm/internal/check"
	"licm/internal/expr"
	"licm/internal/solver"
)

// byteReader drains a fuzz payload one bounded value at a time.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// intn returns a value in [0, n).
func (r *byteReader) intn(n int) int { return int(r.byte()) % n }

func (r *byteReader) done() bool { return r.pos >= len(r.data) }

// bruteSatisfiable enumerates every 0/1 assignment.
func bruteSatisfiable(numVars int, cons []expr.Constraint) bool {
	for a := 0; a < 1<<uint(numVars); a++ {
		val := func(v expr.Var) bool { return a&(1<<uint(v)) != 0 }
		ok := true
		for _, c := range cons {
			if !c.Holds(val) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// genArbitrary builds an unconstrained-shape random store: any
// variable mix per constraint, coefficients in [-3,3].
func genArbitrary(r *byteReader) check.Store {
	numVars := 1 + r.intn(10)
	var cons []expr.Constraint
	for len(cons) < 14 && !r.done() {
		nTerms := 1 + r.intn(6)
		terms := make([]expr.Term, 0, nTerms)
		for t := 0; t < nTerms; t++ {
			coef := int64(r.intn(7)) - 3
			if coef == 0 {
				coef = 1
			}
			terms = append(terms, expr.Term{Var: expr.Var(r.intn(numVars)), Coef: coef})
		}
		op := expr.Op(r.intn(3))
		rhs := int64(r.intn(13)) - 6
		cons = append(cons, expr.NewConstraint(expr.NewLin(0, terms...), op, rhs))
	}
	var objTerms []expr.Term
	for v := 0; v < numVars; v++ {
		objTerms = append(objTerms, expr.Term{Var: expr.Var(v), Coef: int64(r.intn(5)) - 2})
	}
	return check.Store{
		NumVars:     numVars,
		Constraints: cons,
		Objective:   expr.NewLin(0, objTerms...),
	}
}

func FuzzCheckSound(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 2, 0, 9})
	f.Add([]byte{9, 4, 0, 1, 2, 3, 1, 12, 4, 0, 1, 2, 3, 0, 1})
	f.Add([]byte("licm-check-soundness"))
	f.Add([]byte{1, 1, 0, 2, 5, 1, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		s := genArbitrary(r)
		rep := check.Check(s)
		if !rep.ProvenInfeasible() {
			return
		}
		if bruteSatisfiable(s.NumVars, s.Constraints) {
			t.Fatalf("unsound ERROR diagnostic on a satisfiable store:\n%v\nconstraints: %v", rep, s.Constraints)
		}
	})
}

// genGrouped builds a store from variable-disjoint groups on which
// the pass is a decision procedure (see the file comment), so the
// check verdict and the solver must agree exactly.
func genGrouped(r *byteReader) check.Store {
	numGroups := 1 + r.intn(4)
	var cons []expr.Constraint
	next := 0
	for g := 0; g < numGroups; g++ {
		big := r.intn(4) == 0
		size := 1 + r.intn(8)
		if big {
			size = 9 + r.intn(4)
		}
		vars := make([]expr.Var, size)
		for i := range vars {
			vars[i] = expr.Var(next)
			next++
		}
		nCons := 1 + r.intn(3)
		for c := 0; c < nCons; c++ {
			terms := make([]expr.Term, size)
			for i, v := range vars {
				coef := int64(1)
				if !big {
					coef = int64(r.intn(7)) - 3
					if coef == 0 {
						coef = 1
					}
				}
				terms[i] = expr.Term{Var: v, Coef: coef}
			}
			op := expr.Op(r.intn(3))
			rhs := int64(r.intn(2*size+5)) - int64(size) - 2
			if big {
				rhs = int64(r.intn(size + 3))
			}
			cons = append(cons, expr.NewConstraint(expr.NewLin(0, terms...), op, rhs))
		}
	}
	var objTerms []expr.Term
	for v := 0; v < next; v++ {
		objTerms = append(objTerms, expr.Term{Var: expr.Var(v), Coef: int64(r.intn(5)) - 2})
	}
	return check.Store{
		NumVars:     next,
		Constraints: cons,
		Objective:   expr.NewLin(0, objTerms...),
	}
}

func FuzzCheckSolverAgree(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 2, 0, 4, 9})
	f.Add([]byte{2, 1, 5, 0, 2, 1, 1, 3, 2, 2, 0, 0, 7, 7})
	f.Add([]byte("agreement-between-check-and-solver"))
	f.Add([]byte{3, 0, 2, 2, 1, 0, 1, 2, 2, 0, 1, 1, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		s := genGrouped(r)
		rep := check.Check(s)
		p := &solver.Problem{
			NumVars:     s.NumVars,
			Constraints: s.Constraints,
			Objective:   s.Objective,
		}
		_, err := solver.Maximize(context.Background(), p, solver.DefaultOptions())
		switch {
		case rep.ProvenInfeasible():
			if !errors.Is(err, solver.ErrInfeasible) {
				t.Fatalf("check proved infeasibility but the solver returned %v\nreport:\n%v\nconstraints: %v",
					err, rep, s.Constraints)
			}
		case !rep.HasErrors():
			if err != nil {
				t.Fatalf("error-free report but the solver failed: %v\nconstraints: %v", err, s.Constraints)
			}
		}
	})
}
