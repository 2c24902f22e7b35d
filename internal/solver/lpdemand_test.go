package solver

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"licm/internal/expr"
)

// lineageCount is a COUNT query's shape in miniature: nRegions regions
// of perRegion base variables each, a region's OR lineage variable
// (marked derived) for "some base variable of the region is present",
// and one cardinality row "at most k base variables present" that
// joins them into one component. The objective counts the regions
// present. Its minimum, 0, is the min side's combinatorial bound; its
// maximum, k, lies below the max side's bound nRegions.
func lineageCount(nRegions, perRegion, k int) *Problem {
	nBase := nRegions * perRegion
	all := make([]expr.Var, nBase)
	for v := range all {
		all[v] = expr.Var(v)
	}
	cons := []expr.Constraint{expr.NewConstraint(expr.Sum(all...), expr.LE, int64(k))}
	derived := make([]bool, nBase+nRegions)
	var objTerms []expr.Term
	for g := 0; g < nRegions; g++ {
		or := expr.Var(nBase + g)
		derived[or] = true
		region := all[g*perRegion : (g+1)*perRegion]
		for _, b := range region {
			cons = append(cons, expr.NewConstraint(expr.Sum(or).AddTerm(b, -1), expr.GE, 0))
		}
		cons = append(cons, expr.NewConstraint(expr.Sum(or).Add(expr.Sum(region...).Neg()), expr.LE, 0))
		objTerms = append(objTerms, expr.Term{Var: or, Coef: 1})
	}
	return &Problem{
		NumVars:     nBase + nRegions,
		Constraints: cons,
		Objective:   expr.NewLin(0, objTerms...),
		Derived:     derived,
	}
}

// LineageCount exports the fixture to the external tests, which
// certify its components.
var LineageCount = lineageCount

// TestDiveProvesWithoutLP: on a component above the DFS threshold
// whose minimum equals its combinatorial bound, the first dive closes
// the min side without an LP; the max side, where that dive stops
// short of its bound, still solves its root relaxation.
func TestDiveProvesWithoutLP(t *testing.T) {
	p := lineageCount(6, 4, 2)
	opts := DefaultOptions()
	rec := &ExplainRecorder{}
	opts.Explain = rec
	min, max, err := Bounds(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !min.Proven || min.Value != 0 || !max.Proven || max.Value != 2 {
		t.Fatalf("min %d (proven %v), max %d (proven %v), want proven 0 and 2",
			min.Value, min.Proven, max.Value, max.Proven)
	}
	for _, run := range rec.Runs() {
		if len(run.Components) != 1 || run.Components[0].Vars <= opts.DFSThreshold {
			t.Fatalf("%s run: want one component above the DFS threshold %d, got %+v", run.Sense, opts.DFSThreshold, run.Components)
		}
		c := run.Components[0]
		if !c.Proven {
			t.Fatalf("%s run: component unproven", run.Sense)
		}
		switch run.Sense {
		case "min":
			if c.LPSolves != 0 {
				t.Errorf("min run: %d LP solves, want the dive to close the component without one", c.LPSolves)
			}
		case "max":
			if c.LPSolves < 1 {
				t.Errorf("max run: no LP solve, want the root relaxation")
			}
		}
	}
}

// TestDirectionDive: on the min side of a count, where no coefficient
// is positive, the first dive takes weightless variables to 0. A dive
// that prefers 1 turns regions on and misses the bound 0; the
// direction dive reaches it, so the solve needs no LP.
func TestDirectionDive(t *testing.T) {
	p := lineageCount(6, 4, 2)
	cons := lconsOf(p.NumVars, p.Constraints...)
	obj := make([]int64, p.NumVars) // the min side: the negated count
	for _, tm := range p.Objective.Terms() {
		obj[tm.Var] = -tm.Coef
	}
	reach := func(leanZero bool) int64 {
		c := &comp{n: p.NumVars, cons: cons, obj: obj, derived: p.Derived, prop: newPropagator(p.NumVars, cons, obj),
			opts: DefaultOptions(), rec: &ExplainRecorder{}, slot: &ExplainComp{}}
		if !c.prop.drain() {
			t.Fatal("fixture infeasible at the root")
		}
		c.buildOrder()
		c.dive(int64(64*c.n+2048), nil, leanZero)
		if !c.hasIncumbent {
			t.Fatalf("dive (leanZero %v) found no feasible leaf", leanZero)
		}
		return c.best
	}
	if got := reach(false); got >= 0 {
		t.Fatalf("prefer-1 dive reached %d; the fixture must make it miss the bound 0", got)
	}
	if got := reach(true); got != 0 {
		t.Fatalf("direction dive reached %d, want the bound 0", got)
	}
	res, err := Minimize(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven || res.Value != 0 || res.Stats.LPSolves != 0 {
		t.Fatalf("min %d (proven %v) with %d LP solves, want proven 0 with none",
			res.Value, res.Proven, res.Stats.LPSolves)
	}
}

// clique is the independent-set problem of the complete graph on n
// vertices: its optimum is 1, while its relaxation puts 1/2 on each
// vertex for a bound of n/2, so both seed dives stop at 1 and the root
// LP node branches.
func clique(n int) *Problem {
	var edges [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			edges = append(edges, [2]int{a, b})
		}
	}
	return independentSet(n, edges)
}

// TestRootRelaxationReused: the first LP node takes the root
// relaxation the search already solved. On K4 with DFSThreshold 3
// every child of the root goes to DFS, so the one LP solve is the
// root's.
func TestRootRelaxationReused(t *testing.T) {
	opts := DefaultOptions()
	opts.DFSThreshold = 3
	res, err := Maximize(context.Background(), clique(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven || res.Value != 1 {
		t.Fatalf("max %d (proven %v), want proven 1", res.Value, res.Proven)
	}
	if res.Stats.LPSolves != 1 {
		t.Fatalf("%d LP solves, want 1: the root LP node must reuse the root relaxation", res.Stats.LPSolves)
	}
}

// TestRootRelaxationOnlyAtRoot: an LP child solves its own
// relaxation. On K6 with DFSThreshold 2 the root's child that leaves
// vertex 0 out keeps five free variables, so it is an LP node; were it
// handed the root's solution, it would branch on vertex 0 again and
// never close. The solve must be proven well within its node budget.
func TestRootRelaxationOnlyAtRoot(t *testing.T) {
	opts := DefaultOptions()
	opts.DFSThreshold = 2
	opts.MaxNodes = 10_000
	res, err := Maximize(context.Background(), clique(6), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven || res.Value != 1 || res.Stats.LPSolves < 2 {
		t.Fatalf("max %d (proven %v) in %d nodes with %d LP solves, want proven 1 with the child's own LP",
			res.Value, res.Proven, res.Stats.Nodes, res.Stats.LPSolves)
	}
}

// randomLineageCount is a random lineageCount-like instance: random
// cardinality rows over the base variables (any operator), each
// region's OR lineage, and a count or weighted sum of the regions.
func randomLineageCount(r *rand.Rand) *Problem {
	nBase := 3 + r.Intn(7)
	nRegions := 1 + r.Intn(4)
	var cons []expr.Constraint
	for i := r.Intn(4); i > 0; i-- {
		var vs []expr.Var
		for v := 0; v < nBase; v++ {
			if r.Intn(2) == 0 {
				vs = append(vs, expr.Var(v))
			}
		}
		if len(vs) > 0 {
			cons = append(cons, expr.NewConstraint(expr.Sum(vs...), expr.Op(r.Intn(3)), int64(r.Intn(len(vs)+1))))
		}
	}
	derived := make([]bool, nBase+nRegions)
	var objTerms []expr.Term
	for g := 0; g < nRegions; g++ {
		or := expr.Var(nBase + g)
		derived[or] = true
		var region []expr.Var
		for v := 0; v < nBase; v++ {
			if r.Intn(nRegions) == 0 {
				region = append(region, expr.Var(v))
			}
		}
		for _, b := range region {
			cons = append(cons, expr.NewConstraint(expr.Sum(or).AddTerm(b, -1), expr.GE, 0))
		}
		cons = append(cons, expr.NewConstraint(expr.Sum(or).Add(expr.Sum(region...).Neg()), expr.LE, 0))
		objTerms = append(objTerms, expr.Term{Var: or, Coef: int64(1 + r.Intn(3))})
	}
	return &Problem{
		NumVars:     nBase + nRegions,
		Constraints: cons,
		Objective:   expr.NewLin(0, objTerms...),
		Derived:     derived,
	}
}

// TestLPOnDemandAgainstBruteForce: with DFSThreshold at 1, every
// component of two or more free variables takes the LP path, where the
// first dive may close it or leave it to the relaxation. Both senses
// must equal exhaustive enumeration and be proven, and the instances
// must reach both outcomes.
func TestLPOnDemandAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	opts := DefaultOptions()
	opts.DFSThreshold = 1
	var closed, relaxed int
	for trial := 0; trial < 400; trial++ {
		var p *Problem
		if trial%2 == 0 {
			p = randomLineageCount(r)
		} else {
			numVars := 2 + r.Intn(10)
			var cons []expr.Constraint
			for i := r.Intn(8); i > 0; i-- {
				cons = append(cons, randomConstraint(r, numVars))
			}
			p = &Problem{NumVars: numVars, Constraints: cons, Objective: randomObjective(r, numVars)}
		}
		wantMin, wantMax, feasible := bruteForce(p.NumVars, p.Constraints, p.Objective)
		rec := &ExplainRecorder{}
		o := opts
		o.Explain = rec
		min, max, err := Bounds(context.Background(), p, o)
		if !feasible {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: want infeasible, got err=%v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !min.Proven || !max.Proven || min.Value != wantMin || max.Value != wantMax {
			t.Fatalf("trial %d: min %d (proven %v) max %d (proven %v), brute force [%d,%d]\ncons: %v\nobj: %v",
				trial, min.Value, min.Proven, max.Value, max.Proven, wantMin, wantMax, p.Constraints, p.Objective)
		}
		for _, run := range rec.Runs() {
			for _, c := range run.Components {
				switch {
				case c.Vars <= opts.DFSThreshold || c.Reused:
				case c.LPSolves == 0:
					closed++
				default:
					relaxed++
				}
			}
		}
	}
	t.Logf("%d components closed by the dive, %d relaxed", closed, relaxed)
	if closed == 0 || relaxed == 0 {
		t.Fatalf("%d components closed by the dive, %d relaxed: the instances must reach both", closed, relaxed)
	}
}
