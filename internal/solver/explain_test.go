package solver

import (
	"context"
	"testing"
)

// TestExplainRecorderMatchesStats is the attribution contract: the
// per-component records sum exactly to the solve's Stats counters.
func TestExplainRecorderMatchesStats(t *testing.T) {
	p := hardProblem()
	rec := &ExplainRecorder{}
	opts := DefaultOptions()
	opts.MaxNodes = 50_000
	opts.Explain = rec
	res, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	runs := rec.Runs()
	if len(runs) != 1 {
		t.Fatalf("recorded %d runs, want 1", len(runs))
	}
	run := runs[0]
	if run.Sense != "max" {
		t.Errorf("sense = %q, want max", run.Sense)
	}
	st := res.Stats
	if run.VarsBefore != st.VarsBefore || run.VarsAfterPrune != st.VarsAfterPrune ||
		run.ConsBefore != st.ConsBefore || run.ConsAfterPrune != st.ConsAfterPrune ||
		run.FixedByPresolve != st.FixedByPresolve {
		t.Errorf("prune figures %+v do not match stats %+v", run, st)
	}
	if len(run.Components) != st.Components {
		t.Errorf("recorded %d components, stats say %d", len(run.Components), st.Components)
	}
	if run.Nodes != st.Nodes || run.LPSolves != st.LPSolves || run.Propagations != st.Propagations {
		t.Errorf("run totals (%d,%d,%d) != stats (%d,%d,%d)",
			run.Nodes, run.LPSolves, run.Propagations, st.Nodes, st.LPSolves, st.Propagations)
	}
	var nodes, lps, props, solveNs int64
	for _, c := range run.Components {
		if !c.Solved {
			t.Errorf("component %d not marked solved", c.Index)
		}
		if c.Vars <= 0 || len(c.Cons) == 0 {
			t.Errorf("component %d has empty matrix (vars=%d cons=%d)", c.Index, c.Vars, len(c.Cons))
		}
		if len(c.Obj) != c.Vars {
			t.Errorf("component %d objective length %d, vars %d", c.Index, len(c.Obj), c.Vars)
		}
		if c.LPNs > c.SolveNs {
			t.Errorf("component %d LP time %d exceeds solve time %d", c.Index, c.LPNs, c.SolveNs)
		}
		nodes += c.Nodes
		lps += c.LPSolves
		props += c.Propagations
		solveNs += c.SolveNs
	}
	if nodes != st.Nodes {
		t.Errorf("component nodes sum %d != stats %d", nodes, st.Nodes)
	}
	if lps != st.LPSolves {
		t.Errorf("component lp_solves sum %d != stats %d", lps, st.LPSolves)
	}
	if props != st.Propagations-int64(st.FixedByPresolve) {
		t.Errorf("component propagations sum %d != stats %d - presolve %d",
			props, st.Propagations, st.FixedByPresolve)
	}
	if solveNs <= 0 {
		t.Error("no component solve time recorded")
	}
	if run.TotalNs <= 0 || run.SearchNs <= 0 {
		t.Errorf("phase durations not recorded: total=%d search=%d", run.TotalNs, run.SearchNs)
	}
	if !run.Proven {
		t.Error("proven solve not marked proven in run")
	}
}

// TestExplainBoundsRecordsBothSenses: a Bounds call appends one run
// per sense onto the same recorder, with the min run's component
// objectives negated relative to the max run's.
func TestExplainBoundsRecordsBothSenses(t *testing.T) {
	p := hardProblem()
	rec := &ExplainRecorder{}
	opts := DefaultOptions()
	opts.MaxNodes = 50_000
	opts.Explain = rec
	if _, _, err := Bounds(context.Background(), p, opts); err != nil {
		t.Fatal(err)
	}
	runs := rec.Runs()
	if len(runs) != 2 {
		t.Fatalf("recorded %d runs, want 2", len(runs))
	}
	senses := map[string]ExplainRun{}
	for _, r := range runs {
		senses[r.Sense] = r
	}
	mx, okMax := senses["max"]
	mn, okMin := senses["min"]
	if !okMax || !okMin {
		t.Fatalf("senses = %v, want max and min", []string{runs[0].Sense, runs[1].Sense})
	}
	if len(mx.Components) == 0 || len(mx.Components) != len(mn.Components) {
		t.Fatalf("component counts: max %d, min %d", len(mx.Components), len(mn.Components))
	}
	// Minimize negates the objective; the recorded matrices show it.
	neg := false
	for i := range mx.Components {
		for j := range mx.Components[i].Obj {
			if mx.Components[i].Obj[j] != 0 && mn.Components[i].Obj[j] == -mx.Components[i].Obj[j] {
				neg = true
			}
		}
	}
	if !neg {
		t.Error("min run objective not negated relative to max run")
	}
}

// TestExplainCanceledKeepsComponents: components register before any
// search work, so a cancellation still leaves the decomposition (and
// its sizes) in the record — the detail experiment cells need even
// for failed solves.
func TestExplainCanceledKeepsComponents(t *testing.T) {
	p := hardProblem()
	rec := &ExplainRecorder{}
	opts := DefaultOptions()
	opts.UseLP = false
	opts.Explain = rec
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Maximize(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Canceled {
		t.Fatal("solve was not canceled")
	}
	runs := rec.Runs()
	if len(runs) != 1 {
		t.Fatalf("recorded %d runs, want 1", len(runs))
	}
	run := runs[0]
	if !run.Canceled {
		t.Error("run not marked canceled")
	}
	if len(run.Components) == 0 {
		t.Fatal("canceled run lost its component list")
	}
	maxVars := 0
	for _, c := range run.Components {
		if c.Vars > maxVars {
			maxVars = c.Vars
		}
	}
	if maxVars <= 0 {
		t.Errorf("component sizes missing: max vars = %d", maxVars)
	}
}

// TestExplainRecorderIsNoop: attaching a recorder does not change the
// search or its result.
func TestExplainRecorderIsNoop(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxNodes = 20_000
	plain, err := Maximize(context.Background(), hardProblem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Explain = &ExplainRecorder{}
	traced, err := Maximize(context.Background(), hardProblem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Value != traced.Value || plain.Bound != traced.Bound || plain.Proven != traced.Proven {
		t.Errorf("recorder changed the result: %+v vs %+v", plain, traced)
	}
	if plain.Stats.Nodes != traced.Stats.Nodes || plain.Stats.LPSolves != traced.Stats.LPSolves {
		t.Errorf("recorder changed the search: %+v vs %+v", plain.Stats, traced.Stats)
	}
}

// TestExplainTagSense covers the supervisor hook.
func TestExplainTagSense(t *testing.T) {
	rec := &ExplainRecorder{}
	i := rec.start("max")
	rec.finish(i, &Result{}, nil)
	i = rec.start("min")
	rec.finish(i, &Result{}, nil)
	rec.TagSense("max", "sampled")
	runs := rec.Runs()
	if runs[0].Quality != "sampled" || runs[1].Quality != "" {
		t.Errorf("TagSense mis-stamped: %q / %q", runs[0].Quality, runs[1].Quality)
	}
}

// TestRecordedComponentsReplay: the record keeps exactly the matrix
// the search solved, so each recorded component, solved alone from its
// recorded matrix, reproduces the recorded outcome and search effort,
// with and without LP bounding.
func TestRecordedComponentsReplay(t *testing.T) {
	cases := []struct {
		name  string
		p     *Problem
		useLP bool
	}{
		{"hard", hardProblem(), true},
		{"permutation", permutationBlocks(6, 3, 9), true},
		// Without the LP each block takes hundreds of DFS nodes.
		{"permutation", permutationBlocks(5, 3, 9), false},
	}
	for _, tc := range cases {
		opts := DefaultOptions()
		opts.UseLP = tc.useLP
		rec := &ExplainRecorder{}
		wopts := opts
		wopts.Explain = rec
		if _, err := Maximize(context.Background(), tc.p, wopts); err != nil {
			t.Fatalf("%s lp=%v: %v", tc.name, tc.useLP, err)
		}
		comps := rec.Runs()[0].Components
		if len(comps) < 2 {
			t.Fatalf("%s lp=%v: %d components, want several", tc.name, tc.useLP, len(comps))
		}
		var nodes int64
		for _, c := range comps {
			alone := ExplainComp{Index: c.Index, Vars: c.Vars, Cons: c.Cons, Obj: c.Obj}
			cr := solveComp(&ExplainRecorder{}, &alone, nil, opts, nil, nil)
			if cr.best != c.Best || cr.bound != c.Bound || cr.proven != c.Proven || cr.nodes != c.Nodes {
				t.Errorf("%s lp=%v component %d: alone (best %d, bound %d, proven %v, nodes %d), recorded (%d, %d, %v, %d)",
					tc.name, tc.useLP, c.Index, cr.best, cr.bound, cr.proven, cr.nodes, c.Best, c.Bound, c.Proven, c.Nodes)
			}
			nodes += c.Nodes
		}
		if nodes == 0 {
			t.Errorf("%s lp=%v: no search nodes recorded", tc.name, tc.useLP)
		}
	}
}
