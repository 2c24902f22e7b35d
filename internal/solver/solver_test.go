package solver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"licm/internal/expr"
)

// bruteForce returns (min, max, feasible) of obj over all valid 0/1
// assignments of numVars variables.
func bruteForce(numVars int, cons []expr.Constraint, obj expr.Lin) (int64, int64, bool) {
	minV, maxV := int64(math.MaxInt64), int64(math.MinInt64)
	feasible := false
	for mask := 0; mask < 1<<numVars; mask++ {
		val := func(v expr.Var) bool { return mask&(1<<uint(v)) != 0 }
		ok := true
		for _, c := range cons {
			if !c.Holds(val) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		feasible = true
		o := obj.Eval(val)
		if o < minV {
			minV = o
		}
		if o > maxV {
			maxV = o
		}
	}
	return minV, maxV, feasible
}

// checkWitness verifies the assignment satisfies every constraint and
// achieves the reported value.
func checkWitness(t *testing.T, p *Problem, r Result) {
	t.Helper()
	if r.Assignment == nil {
		t.Fatalf("nil witness assignment")
	}
	val := func(v expr.Var) bool { return r.Assignment[v] == 1 }
	for i, c := range p.Constraints {
		if !c.Holds(val) {
			t.Fatalf("witness violates constraint %d: %v", i, c)
		}
	}
	if got := p.Objective.Eval(val); got != r.Value {
		t.Fatalf("witness objective = %d, reported %d", got, r.Value)
	}
}

func TestSimpleCardinality(t *testing.T) {
	// Example 1 of the paper: 5 possible records, between 1 and 2 are
	// true. COUNT bounds are [1,2].
	p := &Problem{
		NumVars: 5,
		Constraints: []expr.Constraint{
			expr.NewConstraint(expr.Sum(0, 1, 2, 3, 4), expr.GE, 1),
			expr.NewConstraint(expr.Sum(0, 1, 2, 3, 4), expr.LE, 2),
		},
		Objective: expr.Sum(0, 1, 2, 3, 4),
	}
	min, max, err := Bounds(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if min.Value != 1 || max.Value != 2 {
		t.Fatalf("bounds = [%d,%d], want [1,2]", min.Value, max.Value)
	}
	if !min.Proven || !max.Proven {
		t.Error("bounds should be proven")
	}
	checkWitness(t, p, min)
	checkWitness(t, p, max)
}

func TestMutualExclusionCoexistenceImplication(t *testing.T) {
	// Example 5 of the paper: the three standard correlations.
	p := &Problem{
		NumVars: 4,
		Constraints: []expr.Constraint{
			expr.NewConstraint(expr.Sum(0, 1), expr.EQ, 1),                     // mutual exclusion
			expr.NewConstraint(expr.Sum(2).Add(expr.Sum(3).Neg()), expr.EQ, 0), // co-existence
			expr.NewConstraint(expr.Sum(0).Add(expr.Sum(2).Neg()), expr.LE, 0), // b0 -> b2
		},
		Objective: expr.Sum(0, 1, 2, 3),
	}
	min, max, err := Bounds(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Worlds: b0=1 forces b2=b3=1 (count 3, with b1=0); b1=1 allows
	// b2=b3 in {0,1} (counts 1 or 3).
	if min.Value != 1 || max.Value != 3 {
		t.Fatalf("bounds = [%d,%d], want [1,3]", min.Value, max.Value)
	}
}

func TestPermutation(t *testing.T) {
	// A 3x3 bijection; objective counts the diagonal. Min 0, max 3.
	var cons []expr.Constraint
	idx := func(i, j int) expr.Var { return expr.Var(3*i + j) }
	for i := 0; i < 3; i++ {
		cons = append(cons,
			expr.NewConstraint(expr.Sum(idx(i, 0), idx(i, 1), idx(i, 2)), expr.EQ, 1),
			expr.NewConstraint(expr.Sum(idx(0, i), idx(1, i), idx(2, i)), expr.EQ, 1),
		)
	}
	p := &Problem{
		NumVars:     9,
		Constraints: cons,
		Objective:   expr.Sum(idx(0, 0), idx(1, 1), idx(2, 2)),
	}
	min, max, err := Bounds(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if min.Value != 0 || max.Value != 3 {
		t.Fatalf("bounds = [%d,%d], want [0,3]", min.Value, max.Value)
	}
	checkWitness(t, p, max)
}

func TestLineageANDChain(t *testing.T) {
	// b2 = b0 AND b1 (intersection lineage); maximize b2 with
	// b0 + b1 <= 1: max is 0.
	p := &Problem{
		NumVars: 3,
		Constraints: []expr.Constraint{
			expr.NewConstraint(expr.Sum(2).Add(expr.Sum(0).Neg()), expr.LE, 0),
			expr.NewConstraint(expr.Sum(2).Add(expr.Sum(1).Neg()), expr.LE, 0),
			expr.NewConstraint(expr.Sum(2).Add(expr.Sum(0, 1).Neg()), expr.GE, -1),
			expr.NewConstraint(expr.Sum(0, 1), expr.LE, 1),
		},
		Objective: expr.Sum(2),
	}
	max, err := Maximize(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if max.Value != 0 {
		t.Fatalf("max = %d, want 0", max.Value)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		NumVars: 2,
		Constraints: []expr.Constraint{
			expr.NewConstraint(expr.Sum(0, 1), expr.GE, 2),
			expr.NewConstraint(expr.Sum(0, 1), expr.LE, 1),
		},
		Objective: expr.Sum(0),
	}
	_, err := Maximize(context.Background(), p, DefaultOptions())
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestValidate(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: expr.Sum(3)}
	if _, err := Maximize(context.Background(), p, DefaultOptions()); err == nil {
		t.Fatal("expected validation error")
	}
	p = &Problem{
		NumVars:     1,
		Constraints: []expr.Constraint{expr.NewConstraint(expr.Sum(5), expr.LE, 1)},
		Objective:   expr.Sum(0),
	}
	if _, err := Maximize(context.Background(), p, DefaultOptions()); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestObjectiveConstant(t *testing.T) {
	p := &Problem{
		NumVars:   2,
		Objective: expr.Sum(0, 1).AddConst(10),
	}
	min, max, err := Bounds(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if min.Value != 10 || max.Value != 12 {
		t.Fatalf("bounds = [%d,%d], want [10,12]", min.Value, max.Value)
	}
}

func TestNegativeCoefficients(t *testing.T) {
	// max 2*b0 - 3*b1 with b0 + b1 >= 1: max 2 (b0=1,b1=0), min -3.
	p := &Problem{
		NumVars: 2,
		Constraints: []expr.Constraint{
			expr.NewConstraint(expr.Sum(0, 1), expr.GE, 1),
		},
		Objective: expr.NewLin(0, expr.Term{Var: 0, Coef: 2}, expr.Term{Var: 1, Coef: -3}),
	}
	min, max, err := Bounds(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if max.Value != 2 || min.Value != -3 {
		t.Fatalf("bounds = [%d,%d], want [-3,2]", min.Value, max.Value)
	}
}

func TestPruningStats(t *testing.T) {
	// Two disjoint groups; the objective touches only the first. The
	// second group's constraint must be pruned.
	p := &Problem{
		NumVars: 6,
		Constraints: []expr.Constraint{
			expr.NewConstraint(expr.Sum(0, 1, 2), expr.GE, 1),
			expr.NewConstraint(expr.Sum(3, 4, 5), expr.GE, 2),
		},
		Objective: expr.Sum(0, 1, 2),
	}
	max, err := Maximize(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if max.Value != 3 {
		t.Fatalf("max = %d, want 3", max.Value)
	}
	if max.Stats.ConsAfterPrune != 1 || max.Stats.VarsAfterPrune != 3 {
		t.Errorf("prune stats = %+v", max.Stats)
	}
	// Witness completion must still satisfy the pruned constraint.
	checkWitness(t, p, max)
}

func TestPruneChain(t *testing.T) {
	// Lineage chain: objective over b3; b3 defined from b1,b2; b1 in a
	// base group with b0. Everything is reachable; nothing pruned.
	cons := []expr.Constraint{
		expr.NewConstraint(expr.Sum(0, 1), expr.GE, 1),
		expr.NewConstraint(expr.Sum(3).Add(expr.Sum(1).Neg()), expr.LE, 0),
		expr.NewConstraint(expr.Sum(3).Add(expr.Sum(2).Neg()), expr.LE, 0),
		expr.NewConstraint(expr.Sum(3).Add(expr.Sum(1, 2).Neg()), expr.GE, -1),
	}
	pr := Prune(4, cons, expr.Sum(3))
	if len(pr.KeptConstraints) != 4 {
		t.Fatalf("kept %d constraints, want 4", len(pr.KeptConstraints))
	}
	if pr.NumReachable != 4 {
		t.Fatalf("reachable = %d, want 4", pr.NumReachable)
	}
}

func TestPruneForwardBaseLink(t *testing.T) {
	// Base constraints linked "forward": constraint 0 over {b0,b1},
	// constraint 1 over {b1}, objective over b0. A single backward
	// pass would miss constraint 1; the fixpoint must keep both.
	cons := []expr.Constraint{
		expr.NewConstraint(expr.Sum(0, 1), expr.LE, 1),
		expr.NewConstraint(expr.Sum(1), expr.GE, 1),
	}
	pr := Prune(2, cons, expr.Sum(0))
	if len(pr.KeptConstraints) != 2 {
		t.Fatalf("kept %d constraints, want 2", len(pr.KeptConstraints))
	}
	// And the solve must respect it: b1 forced 1, so b0 <= 0.
	p := &Problem{NumVars: 2, Constraints: cons, Objective: expr.Sum(0)}
	max, err := Maximize(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if max.Value != 0 {
		t.Fatalf("max = %d, want 0", max.Value)
	}
}

func randomConstraint(r *rand.Rand, numVars int) expr.Constraint {
	n := 1 + r.Intn(4)
	terms := make([]expr.Term, 0, n)
	for i := 0; i < n; i++ {
		terms = append(terms, expr.Term{
			Var:  expr.Var(r.Intn(numVars)),
			Coef: int64(r.Intn(5) - 2),
		})
	}
	lin := expr.NewLin(0, terms...)
	op := expr.Op(r.Intn(3))
	rhs := int64(r.Intn(2*numVars+1) - numVars/2)
	return expr.NewConstraint(lin, op, rhs)
}

func randomObjective(r *rand.Rand, numVars int) expr.Lin {
	terms := make([]expr.Term, 0, numVars)
	for v := 0; v < numVars; v++ {
		if r.Intn(3) != 0 {
			terms = append(terms, expr.Term{Var: expr.Var(v), Coef: int64(r.Intn(9) - 4)})
		}
	}
	return expr.NewLin(int64(r.Intn(5)-2), terms...)
}

// TestRandomAgainstBruteForce is the core exactness check: on random
// small instances the solver must match exhaustive enumeration.
func TestRandomAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		numVars := 1 + r.Intn(10)
		numCons := r.Intn(8)
		cons := make([]expr.Constraint, 0, numCons)
		for i := 0; i < numCons; i++ {
			cons = append(cons, randomConstraint(r, numVars))
		}
		obj := randomObjective(r, numVars)
		p := &Problem{NumVars: numVars, Constraints: cons, Objective: obj}

		wantMin, wantMax, feasible := bruteForce(numVars, cons, obj)
		min, max, err := Bounds(context.Background(), p, DefaultOptions())
		if !feasible {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: want infeasible, got err=%v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if min.Value != wantMin || max.Value != wantMax {
			t.Fatalf("trial %d: bounds [%d,%d], brute force [%d,%d]\ncons: %v\nobj: %v",
				trial, min.Value, max.Value, wantMin, wantMax, cons, obj)
		}
		if !min.Proven || !max.Proven {
			t.Fatalf("trial %d: unproven without budget", trial)
		}
		if min.Assignment != nil {
			checkWitness(t, p, min)
		}
		if max.Assignment != nil {
			checkWitness(t, p, max)
		}
	}
}

// TestRandomLPPathAgainstDFS forces the LP branch-and-bound path by
// setting DFSThreshold to 0 and compares with the pure DFS path.
func TestRandomLPPathAgainstDFS(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	lpOpts := DefaultOptions()
	lpOpts.DFSThreshold = 0
	dfsOpts := DefaultOptions()
	dfsOpts.UseLP = false
	for trial := 0; trial < 300; trial++ {
		numVars := 2 + r.Intn(9)
		numCons := 1 + r.Intn(6)
		cons := make([]expr.Constraint, 0, numCons)
		for i := 0; i < numCons; i++ {
			cons = append(cons, randomConstraint(r, numVars))
		}
		obj := randomObjective(r, numVars)
		p := &Problem{NumVars: numVars, Constraints: cons, Objective: obj}
		a, errA := Maximize(context.Background(), p, lpOpts)
		b, errB := Maximize(context.Background(), p, dfsOpts)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: LP err=%v, DFS err=%v", trial, errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.Value != b.Value {
			t.Fatalf("trial %d: LP=%d, DFS=%d\ncons: %v\nobj: %v", trial, a.Value, b.Value, cons, obj)
		}
	}
}

// TestRandomNoPruneNoDecompose checks the ablation paths give the same
// optima.
func TestRandomNoPruneNoDecompose(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		numVars := 2 + r.Intn(9)
		numCons := r.Intn(6)
		cons := make([]expr.Constraint, 0, numCons)
		for i := 0; i < numCons; i++ {
			cons = append(cons, randomConstraint(r, numVars))
		}
		obj := randomObjective(r, numVars)
		p := &Problem{NumVars: numVars, Constraints: cons, Objective: obj}
		base, errBase := Maximize(context.Background(), p, DefaultOptions())
		noPrune := DefaultOptions()
		noPrune.Prune = false
		noDecomp := DefaultOptions()
		noDecomp.Decompose = false
		a, errA := Maximize(context.Background(), p, noPrune)
		b, errB := Maximize(context.Background(), p, noDecomp)
		if (errBase == nil) != (errA == nil) || (errBase == nil) != (errB == nil) {
			t.Fatalf("trial %d: err mismatch %v / %v / %v", trial, errBase, errA, errB)
		}
		if errBase != nil {
			continue
		}
		if a.Value != base.Value || b.Value != base.Value {
			t.Fatalf("trial %d: base=%d noPrune=%d noDecompose=%d", trial, base.Value, a.Value, b.Value)
		}
	}
}

func TestBudgetedApproximation(t *testing.T) {
	// A hard-ish permutation objective with a tiny node budget: the
	// result must be a valid value/bound pair even when unproven.
	k := 7
	var cons []expr.Constraint
	idx := func(i, j int) expr.Var { return expr.Var(k*i + j) }
	for i := 0; i < k; i++ {
		var row, col []expr.Var
		for j := 0; j < k; j++ {
			row = append(row, idx(i, j))
			col = append(col, idx(j, i))
		}
		cons = append(cons,
			expr.NewConstraint(expr.Sum(row...), expr.EQ, 1),
			expr.NewConstraint(expr.Sum(col...), expr.EQ, 1),
		)
	}
	var terms []expr.Term
	r := rand.New(rand.NewSource(5))
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			terms = append(terms, expr.Term{Var: idx(i, j), Coef: int64(r.Intn(10))})
		}
	}
	obj := expr.NewLin(0, terms...)
	p := &Problem{NumVars: k * k, Constraints: cons, Objective: obj}

	exact, err := Maximize(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxNodes = 3
	opts.UseLP = false
	approx, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Value > exact.Value {
		t.Fatalf("approx value %d exceeds exact %d", approx.Value, exact.Value)
	}
	if approx.Bound < exact.Value {
		t.Fatalf("approx bound %d below exact %d", approx.Bound, exact.Value)
	}
}

func TestLargeIndependentGroups(t *testing.T) {
	// 200 independent >=1 groups of 3: max count 600, min 200. The
	// decomposition must make this instant.
	var cons []expr.Constraint
	var all []expr.Var
	numVars := 600
	for g := 0; g < 200; g++ {
		vs := []expr.Var{expr.Var(3 * g), expr.Var(3*g + 1), expr.Var(3*g + 2)}
		all = append(all, vs...)
		cons = append(cons, expr.NewConstraint(expr.Sum(vs...), expr.GE, 1))
	}
	p := &Problem{NumVars: numVars, Constraints: cons, Objective: expr.Sum(all...)}
	min, max, err := Bounds(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if min.Value != 200 || max.Value != 600 {
		t.Fatalf("bounds = [%d,%d], want [200,600]", min.Value, max.Value)
	}
	if max.Stats.Components != 200 {
		t.Errorf("components = %d, want 200", max.Stats.Components)
	}
}

func BenchmarkSolveGroups(b *testing.B) {
	var cons []expr.Constraint
	var all []expr.Var
	for g := 0; g < 500; g++ {
		vs := []expr.Var{expr.Var(3 * g), expr.Var(3*g + 1), expr.Var(3*g + 2)}
		all = append(all, vs...)
		cons = append(cons, expr.NewConstraint(expr.Sum(vs...), expr.GE, 1))
	}
	p := &Problem{NumVars: 1500, Constraints: cons, Objective: expr.Sum(all...)}
	opts := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Bounds(context.Background(), p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolvePermutation8(b *testing.B) {
	k := 8
	var cons []expr.Constraint
	idx := func(i, j int) expr.Var { return expr.Var(k*i + j) }
	for i := 0; i < k; i++ {
		var row, col []expr.Var
		for j := 0; j < k; j++ {
			row = append(row, idx(i, j))
			col = append(col, idx(j, i))
		}
		cons = append(cons,
			expr.NewConstraint(expr.Sum(row...), expr.EQ, 1),
			expr.NewConstraint(expr.Sum(col...), expr.EQ, 1),
		)
	}
	var diag []expr.Var
	for i := 0; i < k; i++ {
		diag = append(diag, idx(i, (i+1)%k))
	}
	p := &Problem{NumVars: k * k, Constraints: cons, Objective: expr.Sum(diag...)}
	opts := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Bounds(context.Background(), p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestManyComponents solves an instance of 300 independent
// components, all of them equal.
func TestManyComponents(t *testing.T) {
	var cons []expr.Constraint
	var all []expr.Var
	for g := 0; g < 300; g++ {
		vs := []expr.Var{expr.Var(3 * g), expr.Var(3*g + 1), expr.Var(3*g + 2)}
		all = append(all, vs...)
		cons = append(cons, expr.NewConstraint(expr.Sum(vs...), expr.GE, 1))
	}
	p := &Problem{NumVars: 900, Constraints: cons, Objective: expr.Sum(all...)}
	min, max, err := Bounds(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if min.Value != 300 || max.Value != 900 {
		t.Fatalf("bounds = [%d,%d], want [300,900]", min.Value, max.Value)
	}
}

// buildMinCountInstance mimics the data-cleaning query shape: customer
// record groups with 1..2-of-n constraints, OR lineage per region, and
// count-threshold vars — the shape where min-side search needs LP
// guidance.
func buildMinCountInstance(nCustomers, nRegions int, seed int64) *Problem {
	r := rand.New(rand.NewSource(seed))
	var cons []expr.Constraint
	numVars := 0
	newVar := func() expr.Var { numVars++; return expr.Var(numVars - 1) }
	regionRecs := make([][]expr.Var, nRegions)
	for c := 0; c < nCustomers; c++ {
		n := 2 + r.Intn(3)
		vars := make([]expr.Var, n)
		for i := range vars {
			vars[i] = newVar()
			regionRecs[r.Intn(nRegions)] = append(regionRecs[r.Intn(nRegions)], vars[i])
		}
		cons = append(cons,
			expr.NewConstraint(expr.Sum(vars...), expr.GE, 1),
			expr.NewConstraint(expr.Sum(vars...), expr.LE, 2),
		)
	}
	derivedStart := numVars
	var objTerms []expr.Term
	for g := 0; g < nRegions; g++ {
		if len(regionRecs[g]) == 0 {
			continue
		}
		or := newVar()
		for _, a := range regionRecs[g] {
			cons = append(cons, expr.NewConstraint(expr.Sum(or).AddTerm(a, -1), expr.GE, 0))
		}
		cons = append(cons, expr.NewConstraint(expr.Sum(or).Add(expr.Sum(regionRecs[g]...).Neg()), expr.LE, 0))
		objTerms = append(objTerms, expr.Term{Var: or, Coef: 1})
	}
	derived := make([]bool, numVars)
	for v := derivedStart; v < numVars; v++ {
		derived[v] = true
	}
	return &Problem{
		NumVars:     numVars,
		Constraints: cons,
		Objective:   expr.NewLin(0, objTerms...),
		Derived:     derived,
	}
}

// TestLPGuidedSeedFindsMinimum: the min side of an OR-count objective
// must be solved exactly (the LP-guided seed dive lands on the
// relaxation's rounded optimum; without guidance the search stalls on
// a poor incumbent).
func TestLPGuidedSeedFindsMinimum(t *testing.T) {
	p := buildMinCountInstance(60, 6, 3)
	opts := DefaultOptions()
	min, err := Minimize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every region can be avoided? Not necessarily; but the minimum
	// must match a fresh maximization of the complement check: verify
	// against the witness and prove optimality flags.
	if !min.Proven {
		t.Fatalf("min should be proven on this size, got value=%d bound=%d", min.Value, min.Bound)
	}
	if min.Assignment != nil {
		val := p.Objective.Eval(func(v expr.Var) bool { return min.Assignment[v] == 1 })
		if val != min.Value {
			t.Fatalf("witness value %d != reported %d", val, min.Value)
		}
	}
	// Cross-check against pure DFS.
	dfsOpts := DefaultOptions()
	dfsOpts.UseLP = false
	min2, err := Minimize(context.Background(), p, dfsOpts)
	if err != nil {
		t.Fatal(err)
	}
	if min2.Proven && min2.Value != min.Value {
		t.Fatalf("LP path %d vs DFS path %d", min.Value, min2.Value)
	}
	if !min2.Proven && min.Value < min2.Bound {
		t.Fatalf("LP min %d below DFS proven lower bound %d", min.Value, min2.Bound)
	}
}

// independentSet returns the maximum independent set problem of the
// given edges over numVars variables: maximize their sum subject to
// x_a + x_b <= 1 for each edge.
func independentSet(numVars int, edges [][2]int) *Problem {
	cons := make([]expr.Constraint, len(edges))
	for i, e := range edges {
		cons[i] = expr.NewConstraint(expr.Sum(expr.Var(e[0]), expr.Var(e[1])), expr.LE, 1)
	}
	all := make([]expr.Var, numVars)
	for v := range all {
		all[v] = expr.Var(v)
	}
	return &Problem{NumVars: numVars, Constraints: cons, Objective: expr.Sum(all...)}
}

// TestLPSizeCaps pins the component size caps: a component with more
// than maxLPVars free variables or more than maxLPRows constraints is
// searched without the LP, and one exactly at a cap gets its root
// relaxation.
func TestLPSizeCaps(t *testing.T) {
	// A path over n variables: one component of n variables, n-1 rows.
	path := func(n int) *Problem {
		edges := make([][2]int, n-1)
		for i := range edges {
			edges[i] = [2]int{i, i + 1}
		}
		return independentSet(n, edges)
	}
	// The complete bipartite graph K(30,40), 1,200 rows over 70
	// variables, plus one pendant edge to a new variable per extra row.
	biclique := func(extra int) *Problem {
		var edges [][2]int
		for a := 0; a < 30; a++ {
			for b := 30; b < 70; b++ {
				edges = append(edges, [2]int{a, b})
			}
		}
		for i := 0; i < extra; i++ {
			edges = append(edges, [2]int{0, 70 + i})
		}
		return independentSet(70+extra, edges)
	}
	cases := []struct {
		name       string
		p          *Problem
		vars, rows int
		lp         bool
	}{
		{"vars at cap", path(maxLPVars), maxLPVars, maxLPVars - 1, true},
		{"vars over cap", path(maxLPVars + 1), maxLPVars + 1, maxLPVars, false},
		{"rows at cap", biclique(0), 70, maxLPRows, true},
		{"rows over cap", biclique(1), 71, maxLPRows + 1, false},
	}
	for _, tc := range cases {
		opts := DefaultOptions()
		opts.MaxNodes = 1000
		opts.Explain = &ExplainRecorder{}
		res, err := Maximize(context.Background(), tc.p, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		comps := opts.Explain.Runs()[0].Components
		if len(comps) != 1 || comps[0].Vars != tc.vars || len(comps[0].Cons) != tc.rows {
			t.Fatalf("%s: %d components, want one of %d vars and %d rows", tc.name, len(comps), tc.vars, tc.rows)
		}
		if tc.lp && res.Stats.LPSolves < 1 {
			t.Errorf("%s: no LP solve, want the root relaxation", tc.name)
		}
		if !tc.lp && res.Stats.LPSolves != 0 {
			t.Errorf("%s: %d LP solves, want none", tc.name, res.Stats.LPSolves)
		}
	}
}

// TestRootLPBoundCapsResult: with a tiny budget the reported outer
// bound must still benefit from the root relaxation.
func TestRootLPBoundCapsResult(t *testing.T) {
	p := buildMinCountInstance(80, 8, 5)
	opts := DefaultOptions()
	opts.MaxNodes = 50 // starve the search
	max, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The combinatorial bound would be the full number of OR vars;
	// the root LP cannot exceed it and the reported bound must respect
	// both sides.
	if max.Bound < max.Value {
		t.Fatalf("bound %d below value %d", max.Bound, max.Value)
	}
	nOrs := p.Objective.Len()
	if max.Bound > int64(nOrs) {
		t.Fatalf("bound %d exceeds trivial bound %d", max.Bound, nOrs)
	}
}

// TestWitnessCompletionDetectsInfeasiblePrunedPart: infeasibility
// hiding entirely in the pruned (objective-irrelevant) part must
// surface as ErrInfeasible, not as valid bounds.
func TestWitnessCompletionDetectsInfeasiblePrunedPart(t *testing.T) {
	p := &Problem{
		NumVars: 4,
		Constraints: []expr.Constraint{
			// Pruned part over b1..b3: pairwise "exactly one" triangle,
			// unsatisfiable over binaries (sum doubles to 3).
			expr.NewConstraint(expr.Sum(1, 2), expr.EQ, 1),
			expr.NewConstraint(expr.Sum(2, 3), expr.EQ, 1),
			expr.NewConstraint(expr.Sum(1, 3), expr.EQ, 1),
		},
		Objective: expr.Sum(0),
	}
	if _, err := Maximize(context.Background(), p, DefaultOptions()); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// With witness completion off, the pruned part is (by the paper's
	// own semantics) ignored.
	opts := DefaultOptions()
	opts.CompleteWitness = false
	max, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if max.Value != 1 {
		t.Fatalf("value = %d, want 1", max.Value)
	}
}
