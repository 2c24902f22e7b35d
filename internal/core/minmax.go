package core

import (
	"context"
	"fmt"
	"sort"

	"licm/internal/expr"
	"licm/internal/solver"
)

// MinMaxResult bounds a MIN or MAX aggregate over all possible worlds
// in which the input relation is non-empty.
type MinMaxResult struct {
	// Lo and Hi bound the aggregate: in every non-empty world the
	// aggregate lies in [Lo, Hi], and both ends are attained by some
	// world.
	Lo, Hi int64
	// CanBeEmpty reports whether some world instantiates the relation
	// to nothing, leaving the aggregate undefined there (SQL NULL).
	CanBeEmpty bool
}

// MinBounds computes exact bounds for MIN(col) over the relation
// across all possible worlds (Section IV-C notes MIN and MAX follow
// the same case-based recipe as COUNT and SUM). Unlike COUNT, the
// extremes of MIN are not a single linear objective; they are found
// with a descending scan of candidate values, each a feasibility
// query on the constraint store.
func MinBounds(db *DB, r *Relation, col string, opts solver.Options) (MinMaxResult, error) {
	return extremeBounds(db, r, col, opts, true)
}

// MaxBounds computes exact bounds for MAX(col) across all possible
// worlds; see MinBounds.
func MaxBounds(db *DB, r *Relation, col string, opts solver.Options) (MinMaxResult, error) {
	return extremeBounds(db, r, col, opts, false)
}

func extremeBounds(db *DB, r *Relation, col string, opts solver.Options, isMin bool) (MinMaxResult, error) {
	j := -1
	for i, c := range r.Cols {
		if c == col {
			j = i
			break
		}
	}
	if j < 0 {
		return MinMaxResult{}, fmt.Errorf("core: relation %q has no column %q", r.Name, col)
	}
	if len(r.Tuples) == 0 {
		return MinMaxResult{}, fmt.Errorf("core: MIN/MAX over relation with no possible tuples")
	}
	// Group tuple Exts by value.
	type slot struct {
		val     int64
		certain bool
		vars    []expr.Var
	}
	byVal := map[int64]*slot{}
	var vals []int64
	for _, t := range r.Tuples {
		v := t.Vals[j]
		if v.Kind() != KindInt {
			return MinMaxResult{}, fmt.Errorf("core: MIN/MAX over non-numeric column %q", col)
		}
		s, ok := byVal[v.Int()]
		if !ok {
			s = &slot{val: v.Int()}
			byVal[v.Int()] = s
			vals = append(vals, v.Int())
		}
		if t.Ext.IsCertain() {
			s.certain = true
		} else {
			s.vars = append(s.vars, t.Ext.Var())
		}
	}
	// Order candidate values from the aggregate's "best" end: for MIN
	// ascending, for MAX descending.
	sort.Slice(vals, func(a, b int) bool {
		if isMin {
			return vals[a] < vals[b]
		}
		return vals[a] > vals[b]
	})

	res := MinMaxResult{}
	// The "easy" end (Lo for MIN, Hi for MAX): the first value whose
	// slot can be non-empty in some world.
	easy, found := int64(0), false
	for _, v := range vals {
		s := byVal[v]
		if s.certain {
			easy, found = v, true
			break
		}
		if feasible(db, opts, expr.NewConstraint(expr.Sum(s.vars...), expr.GE, 1)) {
			easy, found = v, true
			break
		}
	}
	if !found {
		return MinMaxResult{}, fmt.Errorf("core: relation is empty in every world; MIN/MAX undefined")
	}
	// The "hard" end: the last value x (scanning from the far end)
	// such that some world has every better slot empty and slot x
	// non-empty.
	hard := easy
	for i := len(vals) - 1; i >= 0; i-- {
		x := vals[i]
		s := byVal[x]
		// Better-than-x slots must all be empty.
		blocked := false
		var zero []expr.Constraint
		for _, v := range vals {
			if v == x {
				break // vals is ordered best-first; stop at x
			}
			bs := byVal[v]
			if bs.certain {
				blocked = true
				break
			}
			if len(bs.vars) > 0 {
				zero = append(zero, expr.NewConstraint(expr.Sum(bs.vars...), expr.EQ, 0))
			}
		}
		if blocked {
			continue
		}
		if !s.certain {
			zero = append(zero, expr.NewConstraint(expr.Sum(s.vars...), expr.GE, 1))
		}
		if feasible(db, opts, zero...) {
			hard = x
			break
		}
	}
	if isMin {
		res.Lo, res.Hi = easy, hard
	} else {
		res.Lo, res.Hi = hard, easy
	}
	// Emptiness: every tuple absent simultaneously.
	anyCertain := false
	var allVars []expr.Var
	for _, t := range r.Tuples {
		if t.Ext.IsCertain() {
			anyCertain = true
			break
		}
		allVars = append(allVars, t.Ext.Var())
	}
	if !anyCertain {
		res.CanBeEmpty = feasible(db, opts, expr.NewConstraint(expr.Sum(allVars...), expr.EQ, 0))
	}
	return res, nil
}

// feasible reports whether the store plus the extra constraints admit
// a world.
func feasible(db *DB, opts solver.Options, extra ...expr.Constraint) bool {
	cons := make([]expr.Constraint, 0, db.NumConstraints()+len(extra))
	cons = append(cons, db.Constraints()...)
	cons = append(cons, extra...)
	p := &solver.Problem{
		NumVars:     db.NumVars(),
		Constraints: cons,
		Objective:   expr.Lin{},
		Derived:     db.derivedFlags(),
	}
	// A zero objective turns the solve into pure feasibility. Pruning
	// would discard everything (the objective reaches nothing), so
	// force the extra constraints to be considered by disabling it —
	// the feasibility dive keeps this cheap.
	fopts := opts
	fopts.Prune = false
	fopts.CompleteWitness = false
	_, err := solver.Maximize(context.TODO(), p, fopts)
	return err == nil
}
