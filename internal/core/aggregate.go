package core

import (
	"context"
	"fmt"

	"licm/internal/expr"
	"licm/internal/obs"
	"licm/internal/solver"
)

// CountStar builds the aggregation-at-the-top objective for COUNT(*):
// the sum of the Ext values of the relation (Section IV-C). Certain
// tuples contribute the constant 1.
func CountStar(r *Relation) expr.Lin {
	lin := expr.Lin{}
	var konst int64
	terms := make([]expr.Term, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		if t.Ext.IsCertain() {
			konst++
		} else {
			terms = append(terms, expr.Term{Var: t.Ext.Var(), Coef: 1})
		}
	}
	lin = expr.NewLin(konst, terms...)
	return lin
}

// SumOf builds the objective for SUM(col) where col is a constant
// numeric attribute: each tuple contributes value × Ext.
func SumOf(r *Relation, col string) (expr.Lin, error) {
	j := -1
	for i, c := range r.Cols {
		if c == col {
			j = i
			break
		}
	}
	if j < 0 {
		return expr.Lin{}, fmt.Errorf("core: relation %q has no column %q", r.Name, col)
	}
	var konst int64
	terms := make([]expr.Term, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		v := t.Vals[j]
		if v.Kind() != KindInt {
			return expr.Lin{}, fmt.Errorf("core: SUM over non-numeric column %q", col)
		}
		if t.Ext.IsCertain() {
			konst += v.Int()
		} else if v.Int() != 0 {
			terms = append(terms, expr.Term{Var: t.Ext.Var(), Coef: v.Int()})
		}
	}
	return expr.NewLin(konst, terms...), nil
}

// BoundsResult carries the exact (or budget-limited) lower and upper
// bounds of an aggregate query answer over all possible worlds, plus
// the witness worlds achieving them (Section IV-D).
type BoundsResult struct {
	Min, Max             int64
	MinProven, MaxProven bool
	// MinBound/MaxBound are proven outer bounds; they equal Min/Max
	// when the corresponding side is proven.
	MinBound, MaxBound int64
	// MinWorld/MaxWorld are complete variable assignments (possible
	// worlds) achieving Min and Max; nil if witness completion failed
	// within budget.
	MinWorld, MaxWorld []uint8
	// Stats from the maximization solve (the minimization solve has
	// the same pruned sizes).
	Stats solver.Stats
}

// Bounds solves the binary integer program defined by the objective
// and the DB's constraint store, returning exact upper and lower
// bounds for the aggregate (Section IV-D). The solution vectors
// identify the "boundary case" possible worlds. It solves with no
// deadline and no degradation ladder, for reference answers and
// ablations; tools that answer a query use super.Bounds.
//
// When the DB carries a tracer (SetTracer) and opts.Trace is unset,
// the solves inherit the DB's tracer, so a single SetTracer call
// covers the whole query/solve pipeline.
func Bounds(db *DB, objective expr.Lin, opts solver.Options) (BoundsResult, error) {
	if opts.Trace == nil {
		opts.Trace = db.Tracer()
	}
	sp := opts.Trace.Start("aggregate.bounds",
		obs.Int("vars", db.NumVars()),
		obs.Int("cons", db.NumConstraints()),
		obs.Int("obj_terms", len(objective.Terms())))
	p := BuildProblem(db, objective)
	min, max, err := solver.Bounds(context.TODO(), p, opts)
	if err != nil {
		sp.End(obs.Bool("ok", false))
		return BoundsResult{}, err
	}
	sp.End(
		obs.Bool("ok", true),
		obs.I64("min", min.Value),
		obs.I64("max", max.Value),
		obs.Bool("min_proven", min.Proven),
		obs.Bool("max_proven", max.Proven),
		obs.Int("components", max.Stats.Components),
		obs.Int("vars_pruned", max.Stats.VarsAfterPrune),
		obs.I64("alloc_bytes", min.Stats.AllocBytes+max.Stats.AllocBytes),
		obs.I64("peak_heap", maxI64(min.Stats.PeakHeap, max.Stats.PeakHeap)),
	)
	return BoundsResult{
		Min:       min.Value,
		Max:       max.Value,
		MinProven: min.Proven,
		MaxProven: max.Proven,
		MinBound:  min.Bound,
		MaxBound:  max.Bound,
		MinWorld:  min.Assignment,
		MaxWorld:  max.Assignment,
		Stats:     max.Stats,
	}, nil
}

// BuildProblem assembles the binary integer program for an aggregate
// objective over the DB's constraint store, without solving it. It is
// the entry point for callers that drive the solver themselves — the
// solve supervisor (internal/super) builds the problem once and then
// owns retries and degradation.
func BuildProblem(db *DB, objective expr.Lin) *solver.Problem {
	return &solver.Problem{
		NumVars:     db.NumVars(),
		Constraints: db.Constraints(),
		Objective:   objective,
		Derived:     db.derivedFlags(),
	}
}

// CountBounds is shorthand for Bounds over CountStar(r).
func CountBounds(db *DB, r *Relation, opts solver.Options) (BoundsResult, error) {
	return Bounds(db, CountStar(r), opts)
}

// CardinalityEstimate is a structural (solver-free) estimate of a
// relation's cardinality across worlds — the building block for the
// plan-cost and selectivity estimation the paper's conclusion calls
// for when integrating LICM into a DBMS optimizer. MinCard counts
// certain tuples plus one per "at least one of these tuples" group
// detectable from the store; MaxCard counts all tuples. The true
// count of every world lies in [MinCard, MaxCard]; exact bounds
// require CountBounds.
type CardinalityEstimate struct {
	MinCard, MaxCard int
	Certain          int // tuples present in every world
	Maybe            int // tuples with an existence variable
}

// EstimateCardinality computes a CardinalityEstimate in one pass over
// the relation plus one pass over the constraint store.
func EstimateCardinality(db *DB, r *Relation) CardinalityEstimate {
	est := CardinalityEstimate{}
	inRel := make(map[expr.Var]bool)
	for _, t := range r.Tuples {
		if t.Ext.IsCertain() {
			est.Certain++
		} else {
			est.Maybe++
			inRel[t.Ext.Var()] = true
		}
	}
	est.MaxCard = est.Certain + est.Maybe
	est.MinCard = est.Certain
	// Count disjoint "sum >= k" groups fully contained in the
	// relation: each guarantees k members in every world.
	used := make(map[expr.Var]bool)
	for _, c := range db.Constraints() {
		if c.Op != expr.GE || c.RHS < 1 {
			continue
		}
		ok := true
		for _, tm := range c.Lin.Terms() {
			if tm.Coef != 1 || !inRel[tm.Var] || used[tm.Var] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, tm := range c.Lin.Terms() {
			used[tm.Var] = true
		}
		est.MinCard += int(c.RHS)
	}
	return est
}

// maxI64 avoids the builtin max, which the min/max result variables
// shadow inside Bounds.
func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
