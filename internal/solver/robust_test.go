package solver

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"licm/internal/expr"
	"licm/internal/faultinject"
)

// pairCoverProblem is a feasibility-hard gadget: 2k variables, a
// global "at most k" cap, and k pair-cover constraints. The only
// feasible points pick exactly one variable per pair, which a 1-first
// dive discovers only after massive backtracking — enough to exhaust
// the budgeted heuristic dives and expose the no-incumbent error
// paths. base is the id of the gadget's first variable.
func pairCoverProblem(base, k int) []expr.Constraint {
	var cons []expr.Constraint
	var all []expr.Var
	for i := 0; i < 2*k; i++ {
		all = append(all, expr.Var(base+i))
	}
	cons = append(cons, expr.NewConstraint(expr.Sum(all...), expr.LE, int64(k)))
	for i := 0; i < k; i++ {
		cons = append(cons, expr.NewConstraint(
			expr.Sum(expr.Var(base+2*i), expr.Var(base+2*i+1)), expr.GE, 1))
	}
	return cons
}

// TestCanceledErrorWrapsComponentContext: when cancellation strikes
// before any feasible point exists, the returned error must wrap
// ErrCanceled (errors.Is matches) and name the starved component.
func TestCanceledErrorWrapsComponentContext(t *testing.T) {
	k := 20
	var terms []expr.Term
	for i := 0; i < 2*k; i++ {
		terms = append(terms, expr.Term{Var: expr.Var(i), Coef: 1})
	}
	p := &Problem{
		NumVars:     2 * k,
		Constraints: pairCoverProblem(0, k),
		Objective:   expr.NewLin(0, terms...),
	}
	opts := DefaultOptions()
	opts.UseLP = false // the LP hint would gift the dive a feasible point
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Maximize(ctx, p, opts)
	if err == nil {
		t.Fatal("expected an error from a canceled incumbent-less solve")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("errors.Is(err, ErrCanceled) = false for %v", err)
	}
	if err.Error() == ErrCanceled.Error() {
		t.Fatalf("error was not wrapped with component context: %v", err)
	}
	if !strings.Contains(err.Error(), "component 0") {
		t.Fatalf("error does not name the component: %v", err)
	}
}

// TestWitnessBudgetExhaustedStat: a pruned part too hard for the
// witness budget must surface as Stats.WitnessExhausted with a nil
// Assignment — while the bounds stand.
func TestWitnessBudgetExhaustedStat(t *testing.T) {
	k := 20
	p := &Problem{
		NumVars:     1 + 2*k,
		Constraints: pairCoverProblem(1, k),
		Objective:   expr.Sum(expr.Var(0)),
	}
	res, err := Maximize(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 1 || !res.Proven {
		t.Fatalf("bounds wrong: value=%d proven=%v", res.Value, res.Proven)
	}
	if !res.Stats.WitnessExhausted {
		t.Error("Stats.WitnessExhausted not set")
	}
	if res.Assignment != nil {
		t.Error("Assignment should be nil when the witness is incomplete")
	}
}

// TestCancelBetweenComponentsKeepsProvenBounds: cancellation striking
// after some components finished must keep their proven per-component
// bounds on the run record, and the record's interval must still
// contain the true optimum.
func TestCancelBetweenComponentsKeepsProvenBounds(t *testing.T) {
	// Three independent 7x7 permutation blocks with random weights:
	// each needs thousands of DFS nodes, so ctrl polls fire while later
	// blocks are still open.
	const k = 7
	p := permutationBlocks(k, 3, 9)

	exact, err := Maximize(context.Background(), p, DefaultOptions())
	if err != nil || !exact.Proven {
		t.Fatalf("reference solve: err=%v proven=%v", err, exact.Proven)
	}

	opts := DefaultOptions()
	opts.UseLP = false
	// Component 0 (block 0) is searched first, exactly as when it is
	// solved alone, so its ctrl-batch hit count is the hit index of
	// component 1's first flush: cancel there.
	block0 := permutationBlocks(k, 1, 9)
	counting := faultinject.With(context.Background(), faultinject.Plan{Site: faultinject.CtrlBatch, Hit: -1})
	if _, err := Maximize(counting, block0, opts); err != nil {
		t.Fatal(err)
	}
	firstOfComp1 := faultinject.From(counting).Hits(faultinject.CtrlBatch)
	rec := &ExplainRecorder{}
	opts.Explain = rec
	ctx := faultinject.With(context.Background(),
		faultinject.Plan{Site: faultinject.CtrlBatch, Hit: firstOfComp1, Action: faultinject.Cancel})
	res, err := Maximize(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Canceled {
		t.Fatal("Stats.Canceled not set")
	}
	if res.Proven {
		t.Error("canceled solve reported proven")
	}
	runs := rec.Runs()
	if len(runs) != 1 || len(runs[0].Components) != 3 {
		t.Fatalf("record: runs=%d, want 1 run with 3 components", len(runs))
	}
	provenComps := 0
	for ci, cs := range runs[0].Components {
		if cs.Solved && cs.HasIncumbent && cs.UpperBound == cs.Incumbent {
			provenComps++
		}
		if cs.HasIncumbent && cs.Incumbent > cs.UpperBound {
			t.Errorf("component %d: incumbent %d above bound %d", ci, cs.Incumbent, cs.UpperBound)
		}
	}
	if provenComps == 0 {
		t.Error("no component kept a proven (incumbent == bound) record")
	}
	lo, hi, hasLo, ok := rec.Interval(0)
	if !ok || !hasLo {
		t.Fatalf("record interval unavailable: ok=%v hasLo=%v", ok, hasLo)
	}
	if lo > exact.Value || hi < exact.Value {
		t.Errorf("record interval [%d,%d] excludes true optimum %d", lo, hi, exact.Value)
	}
}

// permutationBlocks builds blocks independent k x k permutation blocks
// (every row and every column picks exactly one cell) with random cell
// weights drawn from seed. Each block is one component; the blocks are
// numbered and weighted in order, so the first b blocks of a larger
// instance are exactly permutationBlocks(k, b, seed).
func permutationBlocks(k, blocks int, seed int64) *Problem {
	var cons []expr.Constraint
	var terms []expr.Term
	r := rand.New(rand.NewSource(seed))
	for b := 0; b < blocks; b++ {
		base := b * k * k
		idx := func(i, j int) expr.Var { return expr.Var(base + k*i + j) }
		for i := 0; i < k; i++ {
			var row, col []expr.Var
			for j := 0; j < k; j++ {
				row = append(row, idx(i, j))
				col = append(col, idx(j, i))
			}
			cons = append(cons,
				expr.NewConstraint(expr.Sum(row...), expr.EQ, 1),
				expr.NewConstraint(expr.Sum(col...), expr.EQ, 1))
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				terms = append(terms, expr.Term{Var: idx(i, j), Coef: int64(r.Intn(10))})
			}
		}
	}
	return &Problem{NumVars: blocks * k * k, Constraints: cons, Objective: expr.NewLin(0, terms...)}
}

// TestOrderSeedPreservesOptimum: the deterministic branching-order
// perturbation must never change proven results — any order is
// correct, only the exploration path differs.
func TestOrderSeedPreservesOptimum(t *testing.T) {
	p := buildMinCountInstance(40, 5, 11)
	base, err := Maximize(context.Background(), p, DefaultOptions())
	if err != nil || !base.Proven {
		t.Fatalf("base solve: err=%v proven=%v", err, base.Proven)
	}
	for _, seed := range []int64{1, 0x5eedbeef, -77} {
		opts := DefaultOptions()
		opts.OrderSeed = seed
		res, err := Maximize(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Proven || res.Value != base.Value {
			t.Fatalf("seed %d: value=%d proven=%v, want %d proven", seed, res.Value, res.Proven, base.Value)
		}
	}
}
