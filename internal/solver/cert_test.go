package solver

import (
	"context"
	"errors"
	"strings"
	"testing"

	"licm/internal/expr"
	"licm/internal/faultinject"
)

// walkCert does structural validation of a proof tree: branch nodes
// decide an in-range, not-yet-decided variable and have both
// children; leaves carry a known kind. It returns the leaf-kind
// census. Exact replay of the leaf justifications is the job of
// internal/cert (the independent verifier); here we pin the recorder
// contract.
func walkCert(t *testing.T, cc *CertComp) map[string]int {
	t.Helper()
	leaves := map[string]int{}
	dec := make([]int8, cc.Vars)
	for i := range dec {
		dec[i] = -1
	}
	var walk func(nd *CertNode)
	walk = func(nd *CertNode) {
		if nd == nil {
			t.Fatalf("component %d: nil node inside proof tree", cc.Index)
		}
		if nd.Var >= 0 {
			if int(nd.Var) >= cc.Vars {
				t.Fatalf("component %d: branch on out-of-range variable %d", cc.Index, nd.Var)
			}
			if dec[nd.Var] != -1 {
				t.Fatalf("component %d: variable %d decided twice on one path", cc.Index, nd.Var)
			}
			if nd.Zero == nil || nd.One == nil {
				t.Fatalf("component %d: branch node missing a child", cc.Index)
			}
			dec[nd.Var] = 0
			walk(nd.Zero)
			dec[nd.Var] = 1
			walk(nd.One)
			dec[nd.Var] = -1
			return
		}
		switch nd.Leaf {
		case CertLeafDual, CertLeafIntopt, CertLeafFarkas:
			leaves[nd.Leaf]++
		default:
			t.Fatalf("component %d: leaf with unknown kind %q", cc.Index, nd.Leaf)
		}
		if nd.Y != nil && len(nd.Y) != len(cc.Cons) {
			t.Fatalf("component %d: leaf multiplier vector has %d entries, want %d", cc.Index, len(nd.Y), len(cc.Cons))
		}
		if nd.Leaf == CertLeafIntopt && len(nd.X) != cc.Vars {
			t.Fatalf("component %d: intopt point has %d entries, want %d", cc.Index, len(nd.X), cc.Vars)
		}
	}
	walk(cc.Tree)
	return leaves
}

// TestCertifyOptimal: a proven solve certifies every component, the
// value accounting Base + sum(values) == Result.Value holds exactly,
// and each witness achieves its claimed value.
func TestCertifyOptimal(t *testing.T) {
	p := hardProblem()
	rec := &ExplainRecorder{}
	opts := DefaultOptions()
	opts.Explain = rec
	res, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven {
		t.Fatal("expected a proven solve")
	}
	runs := Certify(context.Background(), rec)
	if len(runs) != 1 {
		t.Fatalf("recorded %d runs, want 1", len(runs))
	}
	run := runs[0]
	if run.Sense != "max" || !run.Proven || run.Err != "" {
		t.Fatalf("run header = %+v, want proven max with no error", run)
	}
	if run.Value != res.Value {
		t.Fatalf("run value %d != result value %d", run.Value, res.Value)
	}
	if len(run.Comps) == 0 {
		t.Fatal("no components recorded")
	}
	sum := run.Base
	for i := range run.Comps {
		cc := &run.Comps[i]
		if cc.Status != CertOptimal {
			t.Fatalf("component %d status %q (skip=%q), want optimal", cc.Index, cc.Status, cc.Skip)
		}
		if len(cc.Witness) != cc.Vars {
			t.Fatalf("component %d witness length %d, want %d", cc.Index, len(cc.Witness), cc.Vars)
		}
		val, feas := pointCheck(&ExplainComp{Vars: cc.Vars, Cons: cc.Cons, Obj: cc.Obj}, cc.Witness)
		if !feas || val != cc.Value {
			t.Fatalf("component %d witness: feasible=%v value=%d, claimed %d", cc.Index, feas, val, cc.Value)
		}
		walkCert(t, cc)
		sum += cc.Value
	}
	if sum != res.Value {
		t.Fatalf("base %d + component values = %d, result value %d", run.Base, sum, res.Value)
	}
}

// TestCertifyBranchingTree: an odd cycle with weight-2 objective makes
// the root LP bound too weak (3 vs optimum 2), forcing the
// certification pass to actually branch; the tree must still close
// and contain at least one branch node.
func TestCertifyBranchingTree(t *testing.T) {
	cons := []expr.Constraint{
		expr.NewConstraint(expr.Sum(0, 1), expr.LE, 1),
		expr.NewConstraint(expr.Sum(1, 2), expr.LE, 1),
		expr.NewConstraint(expr.Sum(0, 2), expr.LE, 1),
	}
	obj := expr.Lin{}
	for v := 0; v < 3; v++ {
		obj = obj.AddTerm(expr.Var(v), 2)
	}
	p := &Problem{NumVars: 3, Constraints: cons, Objective: obj}
	rec := &ExplainRecorder{}
	opts := DefaultOptions()
	opts.Explain = rec
	res, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 || !res.Proven {
		t.Fatalf("value = %d proven=%v, want proven 2", res.Value, res.Proven)
	}
	run := Certify(context.Background(), rec)[0]
	if len(run.Comps) != 1 || run.Comps[0].Status != CertOptimal {
		t.Fatalf("unexpected certificate shape: %+v", run.Comps)
	}
	cc := run.Comps[0]
	branches := 0
	var count func(nd *CertNode)
	count = func(nd *CertNode) {
		if nd == nil || nd.Var < 0 {
			return
		}
		branches++
		count(nd.Zero)
		count(nd.One)
	}
	count(cc.Tree)
	if branches == 0 {
		t.Fatal("expected the weak-LP cycle to force at least one branch node")
	}
	walkCert(t, &cc)
}

// TestCertifyInfeasible: a component-level contradiction (not caught
// by presolve) yields an infeasibility certificate made of farkas
// leaves, on a run that records the infeasibility error.
func TestCertifyInfeasible(t *testing.T) {
	cons := []expr.Constraint{
		expr.NewConstraint(expr.Sum(0, 1, 2), expr.GE, 2),
		expr.NewConstraint(expr.Sum(0, 1, 2), expr.LE, 1),
	}
	p := &Problem{NumVars: 3, Constraints: cons, Objective: expr.Sum(0)}
	rec := &ExplainRecorder{}
	opts := DefaultOptions()
	opts.Explain = rec
	_, err := Maximize(context.Background(), p, opts)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want infeasible", err)
	}
	run := Certify(context.Background(), rec)[0]
	if run.Err == "" || run.Proven {
		t.Fatalf("infeasible run recorded as %+v", run)
	}
	if len(run.Comps) != 1 {
		t.Fatalf("recorded %d components, want 1", len(run.Comps))
	}
	cc := run.Comps[0]
	if cc.Status != CertInfeasible {
		t.Fatalf("status %q (skip=%q), want infeasible", cc.Status, cc.Skip)
	}
	leaves := walkCert(t, &cc)
	if leaves[CertLeafFarkas] == 0 {
		t.Fatalf("infeasibility tree has no farkas leaves: %v", leaves)
	}
	if leaves[CertLeafDual] != 0 || leaves[CertLeafIntopt] != 0 {
		t.Fatalf("infeasibility tree carries optimality leaves: %v", leaves)
	}
}

// TestCertifyUnprovenSkips: when the search cannot prove optimality,
// the component is skipped with a reason instead of certified — a
// certificate must never claim more than the solver proved.
func TestCertifyUnprovenSkips(t *testing.T) {
	p := hardProblem()
	rec := &ExplainRecorder{}
	opts := DefaultOptions()
	opts.UseLP = false // cripple bounding so the budget trips
	opts.MaxNodes = 50
	opts.Explain = rec
	res, err := Maximize(context.Background(), p, opts)
	if err != nil {
		// Budget starvation before any feasible point is also fine for
		// this test; the run then records the error.
		t.Skipf("budget starved before a feasible point: %v", err)
	}
	if res.Proven {
		t.Skip("solve unexpectedly proven; cannot exercise the skip path")
	}
	run := Certify(context.Background(), rec)[0]
	skipped := 0
	for _, cc := range run.Comps {
		if cc.Status == CertSkipped {
			skipped++
			if !strings.Contains(cc.Skip, "unproven") {
				t.Fatalf("skip reason %q does not name the cause", cc.Skip)
			}
			if cc.Tree != nil || cc.Witness != nil {
				t.Fatal("skipped component still carries proof data")
			}
		}
	}
	if skipped == 0 {
		t.Fatal("unproven solve certified every component")
	}
	if run.Proven {
		t.Fatal("unproven solve marked proven on the cert run")
	}
}

// TestCertifyBoundsBothSenses: Bounds appends a max and a min run;
// the min run is recorded in the solver's negated (maximization)
// frame, so its value is the negation of the reported minimum.
func TestCertifyBoundsBothSenses(t *testing.T) {
	p := paperStyleProblem()
	rec := &ExplainRecorder{}
	opts := DefaultOptions()
	opts.Explain = rec
	minRes, maxRes, err := Bounds(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	runs := Certify(context.Background(), rec)
	if len(runs) != 2 || runs[0].Sense != "max" || runs[1].Sense != "min" {
		t.Fatalf("runs = %+v, want a max run then a min run", runs)
	}
	if runs[0].Value != maxRes.Value {
		t.Fatalf("max run value %d != %d", runs[0].Value, maxRes.Value)
	}
	if runs[1].Value != -minRes.Value {
		t.Fatalf("min run value %d != negated minimum %d", runs[1].Value, -minRes.Value)
	}
	for _, run := range runs {
		sum := run.Base
		for i := range run.Comps {
			cc := &run.Comps[i]
			if cc.Status != CertOptimal {
				t.Fatalf("%s component %d: status %q (skip=%q)", run.Sense, cc.Index, cc.Status, cc.Skip)
			}
			walkCert(t, cc)
			sum += cc.Value
		}
		if sum != run.Value {
			t.Fatalf("%s run: base %d + components = %d, value %d", run.Sense, run.Base, sum, run.Value)
		}
	}
}

// TestCertifyMergedPath: the decomposition-ablation path (Decompose
// off) certifies the single merged component.
func TestCertifyMergedPath(t *testing.T) {
	p := paperStyleProblem()
	rec := &ExplainRecorder{}
	opts := DefaultOptions()
	opts.Decompose = false
	opts.Explain = rec
	res, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	run := Certify(context.Background(), rec)[0]
	if len(run.Comps) != 1 {
		t.Fatalf("merged solve recorded %d components, want 1", len(run.Comps))
	}
	cc := run.Comps[0]
	if cc.Status != CertOptimal {
		t.Fatalf("status %q (skip=%q), want optimal", cc.Status, cc.Skip)
	}
	walkCert(t, &cc)
	if run.Base+cc.Value != res.Value {
		t.Fatalf("base %d + merged value %d != result %d", run.Base, cc.Value, res.Value)
	}
}

// TestCertifyCarriesFaultInjector: certification runs after the solve,
// on the caller's context, and every certification LP must still reach
// the fault injector that context carries.
func TestCertifyCarriesFaultInjector(t *testing.T) {
	rec := &ExplainRecorder{}
	opts := DefaultOptions()
	opts.Explain = rec
	if _, err := Maximize(context.Background(), hardProblem(), opts); err != nil {
		t.Fatal(err)
	}
	ctx := faultinject.With(context.Background(), faultinject.Plan{Site: faultinject.LPPivot, Hit: -1})
	runs := Certify(ctx, rec)
	if len(runs) != 1 || len(runs[0].Comps) == 0 {
		t.Fatalf("certified %d runs, want 1 with components", len(runs))
	}
	if hits := faultinject.From(ctx).Hits(faultinject.LPPivot); hits <= 0 {
		t.Fatalf("certification LPs reached the injector %d times, want > 0", hits)
	}
}
