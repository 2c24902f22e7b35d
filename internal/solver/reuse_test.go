package solver

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"licm/internal/expr"
	"licm/internal/faultinject"
)

// seededBlocks builds one k x k permutation block per seed (every row
// and every column picks exactly one cell), block b's cell weights
// drawn from seeds[b]. Blocks with equal seeds have equal projected
// matrices and objectives.
func seededBlocks(k int, seeds ...int64) *Problem {
	var cons []expr.Constraint
	var terms []expr.Term
	for b, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
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
				terms = append(terms, expr.Term{Var: idx(i, j), Coef: int64(1 + r.Intn(9))})
			}
		}
	}
	return &Problem{NumVars: len(seeds) * k * k, Constraints: cons, Objective: expr.NewLin(0, terms...)}
}

// solveRecorded maximizes p with opts and returns the result and its
// one recorded run.
func solveRecorded(t *testing.T, p *Problem, opts Options) (Result, ExplainRun) {
	t.Helper()
	rec := &ExplainRecorder{}
	opts.Explain = rec
	res, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Runs()[0]
}

// sameOutcome compares two component records on everything but their
// index, timings and Reused mark.
func sameOutcome(a, b ExplainComp) bool {
	return a.Vars == b.Vars && a.Solved == b.Solved && a.Nodes == b.Nodes && a.LPSolves == b.LPSolves &&
		a.Propagations == b.Propagations && a.Feasible == b.Feasible && a.Proven == b.Proven &&
		a.Best == b.Best && a.Bound == b.Bound && slices.Equal(a.Witness, b.Witness) &&
		a.UpperBound == b.UpperBound && a.Incumbent == b.Incumbent && a.HasIncumbent == b.HasIncumbent
}

// TestReuseIdenticalBlocks: k copies of one block plus a distinct one.
// The solve searches the block once; the copies carry its outcome and
// counts, so the run's totals are k times the block's plus the
// distinct block's, exactly as if every copy had been searched.
func TestReuseIdenticalBlocks(t *testing.T) {
	const k = 3
	for _, useLP := range []bool{true, false} {
		opts := DefaultOptions()
		opts.UseLP = useLP
		single, singleRun := solveRecorded(t, seededBlocks(6, 3), opts)
		other, otherRun := solveRecorded(t, seededBlocks(6, 5), opts)
		res, run := solveRecorded(t, seededBlocks(6, 3, 3, 3, 5), opts)
		if !res.Proven || res.Value != k*single.Value+other.Value {
			t.Fatalf("lp=%v: value %d proven %v, want %d proven", useLP, res.Value, res.Proven, k*single.Value+other.Value)
		}
		st, s1, s2 := res.Stats, single.Stats, other.Stats
		if st.Nodes != k*s1.Nodes+s2.Nodes || st.LPSolves != k*s1.LPSolves+s2.LPSolves ||
			st.Propagations != k*s1.Propagations+s2.Propagations {
			t.Errorf("lp=%v: nodes/lps/props (%d,%d,%d), want k x (%d,%d,%d) + (%d,%d,%d)", useLP,
				st.Nodes, st.LPSolves, st.Propagations, s1.Nodes, s1.LPSolves, s1.Propagations, s2.Nodes, s2.LPSolves, s2.Propagations)
		}
		if s1.Nodes == 0 || (useLP && s1.LPSolves == 0) {
			t.Fatalf("lp=%v: block takes no search (nodes %d, lps %d)", useLP, s1.Nodes, s1.LPSolves)
		}
		if run.Nodes != st.Nodes || run.LPSolves != st.LPSolves || run.Propagations != st.Propagations {
			t.Errorf("lp=%v: run totals (%d,%d,%d) != stats (%d,%d,%d)", useLP,
				run.Nodes, run.LPSolves, run.Propagations, st.Nodes, st.LPSolves, st.Propagations)
		}
		if len(run.Components) != k+1 {
			t.Fatalf("lp=%v: %d components, want %d", useLP, len(run.Components), k+1)
		}
		for ci, c := range run.Components {
			want := singleRun.Components[0]
			if ci == k {
				want = otherRun.Components[0]
			}
			if reused := ci > 0 && ci < k; c.Reused != reused {
				t.Errorf("lp=%v: component %d Reused = %v, want %v", useLP, ci, c.Reused, reused)
			}
			if !sameOutcome(c, want) {
				t.Errorf("lp=%v: component %d record %+v, want the block's %+v", useLP, ci, c, want)
			}
			if c.Reused && c.LPNs != 0 {
				t.Errorf("lp=%v: reused component %d has LP time %d", useLP, ci, c.LPNs)
			}
		}
	}
}

// TestReuseRespectsBudget: with MaxNodes between one block's draw and
// two blocks' draw, the second of two identical blocks cannot take the
// first's outcome: it is searched on what the budget has left and cut
// short, exactly as that block solved alone on that budget.
func TestReuseRespectsBudget(t *testing.T) {
	opts := noLPOptions() // plain DFS: every node is drawn from the budget
	single, singleRun := solveRecorded(t, seededBlocks(6, 3), opts)
	draw := single.Stats.Nodes
	if !single.Proven || draw < 100 {
		t.Fatalf("block: proven %v after %d nodes, want a proven search of >= 100 nodes", single.Proven, draw)
	}
	left := draw / 2
	opts.MaxNodes = draw + left
	res, run := solveRecorded(t, seededBlocks(6, 3, 3), opts)
	if res.Proven {
		t.Fatal("budget-limited solve reported proven")
	}
	second := run.Components[1]
	if second.Reused || second.Proven {
		t.Fatalf("second block: reused %v proven %v, want searched and cut short", second.Reused, second.Proven)
	}
	opts.MaxNodes = left
	_, alone := solveRecorded(t, seededBlocks(6, 3), opts)
	if !sameOutcome(second, alone.Components[0]) {
		t.Errorf("second block record %+v, want the block alone on %d nodes: %+v", second, left, alone.Components[0])
	}
	if !sameOutcome(run.Components[0], singleRun.Components[0]) {
		t.Errorf("first block record %+v, want the block alone: %+v", run.Components[0], singleRun.Components[0])
	}
}

// noLPOptions is DefaultOptions with LP bounding off.
func noLPOptions() Options {
	o := DefaultOptions()
	o.UseLP = false
	return o
}

// TestReuseKeepsDerivedFlagsApart: equal matrices with different
// derived flags branch in different orders, so neither takes the
// other's outcome.
func TestReuseKeepsDerivedFlagsApart(t *testing.T) {
	p := seededBlocks(5, 3, 3)
	p.Derived = make([]bool, p.NumVars)
	for v := 25; v < 30; v++ {
		p.Derived[v] = true // the second block's first row
	}
	opts := noLPOptions()
	_, run := solveRecorded(t, p, opts)
	for ci, c := range run.Components {
		if c.Reused {
			t.Errorf("component %d reused across different derived flags", ci)
		}
	}
	// Control: without the flags the second block is a copy.
	p.Derived = nil
	_, run = solveRecorded(t, p, opts)
	if !run.Components[1].Reused {
		t.Error("identical blocks without derived flags not reused")
	}
}

// TestAssignmentMapsDenseIDsToStore: the search numbers only the
// variables pruning keeps; Result.Assignment must still set exactly
// the variables presolve fixed to 1 or the search chose as 1, at their
// store ids, around unreachable variables it leaves alone.
func TestAssignmentMapsDenseIDsToStore(t *testing.T) {
	v := func(i int) expr.Var { return expr.Var(i) }
	p := &Problem{
		NumVars: 14,
		Constraints: []expr.Constraint{
			// Unreachable: no objective variable in reach.
			expr.NewConstraint(expr.Sum(v(0), v(2)), expr.GE, 1),
			expr.NewConstraint(expr.Sum(v(5), v(8), v(13)), expr.EQ, 1),
			// Presolve fixes 3 to 1 and 6 to 0.
			expr.NewConstraint(expr.Sum(v(3)), expr.GE, 1),
			expr.NewConstraint(expr.Sum(v(6)), expr.LE, 0),
			// Two components: pick two of {1,4,7,10}, one of {11,12}.
			expr.NewConstraint(expr.Sum(v(1), v(4), v(7), v(10)), expr.LE, 2),
			expr.NewConstraint(expr.Sum(v(11), v(12)), expr.LE, 1),
			// Links the fixed 6 into the first component's reach.
			expr.NewConstraint(expr.Sum(v(6), v(9)), expr.LE, 1),
		},
		Objective: expr.NewLin(0,
			expr.Term{Var: v(1), Coef: 1}, expr.Term{Var: v(3), Coef: 5}, expr.Term{Var: v(4), Coef: 2},
			expr.Term{Var: v(6), Coef: 7}, expr.Term{Var: v(7), Coef: 3}, expr.Term{Var: v(10), Coef: 4},
			expr.Term{Var: v(11), Coef: 2}, expr.Term{Var: v(12), Coef: 1}),
	}
	objValue := func(a []uint8) int64 {
		var s int64
		for _, t := range p.Objective.Terms() {
			if a[t.Var] == 1 {
				s += t.Coef
			}
		}
		return s
	}
	opts := DefaultOptions()
	opts.CompleteWitness = false
	res, err := Maximize(context.Background(), p, opts)
	if err != nil || !res.Proven || res.Value != 5+3+4+2 {
		t.Fatalf("value %d proven %v err %v, want 14 proven", res.Value, res.Proven, err)
	}
	if res.Stats.VarsAfterPrune != 9 || res.Stats.FixedByPresolve != 2 {
		t.Fatalf("kept %d vars, fixed %d, want 9 and 2", res.Stats.VarsAfterPrune, res.Stats.FixedByPresolve)
	}
	// 3 is fixed; 7, 10 and 11 are optimal; 9, free in a constraint
	// but not in the objective, takes the search's preferred 1.
	want := make([]uint8, p.NumVars)
	for _, i := range []int{3, 7, 9, 10, 11} {
		want[i] = 1
	}
	if !slices.Equal(res.Assignment, want) {
		t.Errorf("assignment %v, want %v", res.Assignment, want)
	}
	if got := objValue(res.Assignment); got != res.Value {
		t.Errorf("assignment objective %d, Value %d", got, res.Value)
	}
	// With witness completion the unreachable part gets values too,
	// and the whole world is feasible.
	opts.CompleteWitness = true
	res, err = Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkWitness(t, p, res)
	if got := objValue(res.Assignment); got != res.Value {
		t.Errorf("completed assignment objective %d, Value %d", got, res.Value)
	}
}

// TestPanickedRunRecordedUnproven: a component panic unwinds through
// solve; the run it opened must close unproven with the panic as its
// error (so neither licm-explain/1 nor Certify calls the dead attempt
// proven), and the panic must still reach the caller as a *CompPanic.
func TestPanickedRunRecordedUnproven(t *testing.T) {
	opts := noLPOptions()
	rec := &ExplainRecorder{}
	opts.Explain = rec
	ctx := faultinject.With(context.Background(),
		faultinject.Plan{Site: faultinject.CtrlBatch, Hit: 2, Action: faultinject.Panic})
	var caught any
	func() {
		defer func() { caught = recover() }()
		_, _ = Maximize(ctx, permutationBlocks(7, 3, 9), opts)
	}()
	var cp *CompPanic
	if err, ok := caught.(error); !ok || !errors.As(err, &cp) {
		t.Fatalf("recovered %v (%T), want a *CompPanic", caught, caught)
	}
	runs := rec.Runs()
	if len(runs) != 1 {
		t.Fatalf("recorded %d runs, want 1", len(runs))
	}
	run := runs[0]
	if run.Proven || !strings.Contains(run.Err, "panic") {
		t.Errorf("panicked run: proven %v, err %q; want unproven with the panic as its error", run.Proven, run.Err)
	}
	unsolved := 0
	for _, c := range run.Components {
		if !c.Solved {
			unsolved++
		}
	}
	if unsolved == 0 {
		t.Error("every component solved: the panic struck too late to test anything")
	}
	cr := Certify(context.Background(), rec)
	if len(cr) != 1 || cr[0].Proven || cr[0].Err == "" {
		t.Fatalf("Certify: %d runs, first proven %v err %q; want one unproven run with an error", len(cr), cr[0].Proven, cr[0].Err)
	}
}
