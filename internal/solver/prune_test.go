package solver

import (
	"context"
	"math/rand"
	"testing"

	"licm/internal/expr"
)

// chainProblem builds a reachability chain b0 - b1 - ... - bk through
// two-variable constraints ordered so that the backward scan reaches
// only one new link per pass: constraint i links (b_i, b_{i+1}) and
// constraints are stored in ascending order, while the scan walks
// from the last constraint to the first. Only b0 is in the objective,
// so pass 1 keeps just constraint 0, pass 2 constraint 1, and so on —
// the fixpoint loop must run k passes to keep the whole chain.
func chainProblem(k int) (int, []expr.Constraint, expr.Lin) {
	cons := make([]expr.Constraint, k)
	for i := 0; i < k; i++ {
		cons[i] = expr.NewConstraint(expr.Sum(expr.Var(i), expr.Var(i+1)), expr.GE, 1)
	}
	return k + 1, cons, expr.Sum(0)
}

func TestPruneFixpointChain(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 20} {
		n, cons, obj := chainProblem(k)
		pr := Prune(n, cons, obj)
		if len(pr.KeptConstraints) != k {
			t.Fatalf("chain k=%d: kept %d constraints, want all %d", k, len(pr.KeptConstraints), k)
		}
		if pr.NumReachable != n {
			t.Fatalf("chain k=%d: %d reachable vars, want %d", k, pr.NumReachable, n)
		}
		for v := 0; v < n; v++ {
			if !pr.Reachable[v] {
				t.Fatalf("chain k=%d: b%d not reachable", k, v)
			}
		}
	}
}

// TestPruneFixpointPartial interleaves a multi-pass chain with a
// disconnected family: the fixpoint must absorb the whole chain and
// still drop everything not connected to the objective.
func TestPruneFixpointPartial(t *testing.T) {
	// Chain over b0..b3 in ascending order (needs 3 passes), plus an
	// island b4..b6 that must stay pruned.
	cons := []expr.Constraint{
		expr.NewConstraint(expr.Sum(0, 1), expr.GE, 1), // 0: kept pass 1
		expr.NewConstraint(expr.Sum(1, 2), expr.GE, 1), // 1: kept pass 2
		expr.NewConstraint(expr.Sum(2, 3), expr.GE, 1), // 2: kept pass 3
		expr.NewConstraint(expr.Sum(4, 5), expr.EQ, 1), // 3: island
		expr.NewConstraint(expr.Sum(5, 6), expr.LE, 1), // 4: island
	}
	pr := Prune(7, cons, expr.Sum(0))
	if got, want := len(pr.KeptConstraints), 3; got != want {
		t.Fatalf("kept %d constraints, want %d (%v)", got, want, pr.KeptConstraints)
	}
	for i, want := range []int{0, 1, 2} {
		if pr.KeptConstraints[i] != want {
			t.Fatalf("KeptConstraints = %v, want [0 1 2]", pr.KeptConstraints)
		}
	}
	if pr.NumReachable != 4 {
		t.Fatalf("NumReachable = %d, want 4", pr.NumReachable)
	}
	for v := 4; v < 7; v++ {
		if pr.Reachable[v] {
			t.Fatalf("island variable b%d wrongly reachable", v)
		}
	}
}

// TestPruneFixpointDiamond: two ascending branches that merge — the
// second branch is only reachable through a variable discovered on a
// later pass, and joins on yet another pass.
func TestPruneFixpointDiamond(t *testing.T) {
	cons := []expr.Constraint{
		expr.NewConstraint(expr.Sum(0, 1), expr.GE, 1),    // reaches b1 (pass 1)
		expr.NewConstraint(expr.Sum(1, 2), expr.GE, 1),    // reaches b2 (pass 2)
		expr.NewConstraint(expr.Sum(2, 3, 4), expr.LE, 2), // reaches b3, b4 (pass 3)
		expr.NewConstraint(expr.Sum(4, 5), expr.EQ, 1),    // reaches b5 (pass 4)
	}
	pr := Prune(6, cons, expr.Sum(0))
	if len(pr.KeptConstraints) != 4 || pr.NumReachable != 6 {
		t.Fatalf("kept=%v reachable=%d, want all 4 constraints and 6 vars",
			pr.KeptConstraints, pr.NumReachable)
	}
}

// TestPruneSolveAgreement: solving with pruning enabled and disabled
// must agree on multi-pass chains (the bug pruning tests guard
// against is dropping a constraint that actually binds the optimum).
func TestPruneSolveAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(8)
		n, cons, _ := chainProblem(k)
		// A binding chain: force alternation pressure with mutexes so
		// pruning a link would change the optimum.
		obj := make([]expr.Term, n)
		for v := 0; v < n; v++ {
			obj[v] = expr.Term{Var: expr.Var(v), Coef: int64(rng.Intn(5)) - 2}
		}
		p := &Problem{NumVars: n, Constraints: cons, Objective: expr.NewLin(0, obj...)}
		with := DefaultOptions()
		without := DefaultOptions()
		without.Prune = false
		r1, err1 := Maximize(context.Background(), p, with)
		r2, err2 := Maximize(context.Background(), p, without)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: errors %v / %v", trial, err1, err2)
		}
		if r1.Value != r2.Value {
			t.Fatalf("trial %d: pruned value %d != unpruned %d", trial, r1.Value, r2.Value)
		}
		if !r1.Proven || !r2.Proven {
			t.Fatalf("trial %d: unproven on a tiny instance", trial)
		}
	}
}
