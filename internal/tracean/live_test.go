package tracean_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"licm/internal/expr"
	"licm/internal/obs"
	"licm/internal/solver"
	"licm/internal/tracean"
)

// liveProblem mirrors the solver obs tests: a knapsack component with
// enough equally-attractive variables to force a real search tree.
func liveProblem() *solver.Problem {
	const big = 40
	vars := func(start, n int) []expr.Var {
		vs := make([]expr.Var, n)
		for i := range vs {
			vs[i] = expr.Var(start + i)
		}
		return vs
	}
	var cons []expr.Constraint
	cons = append(cons, expr.NewConstraint(expr.Sum(vars(0, big)...), expr.LE, 20))
	obj := expr.Lin{}
	for v := 0; v < big; v++ {
		obj = obj.AddTerm(expr.Var(v), 1)
	}
	n := big
	for g := 0; g < 4; g++ {
		vs := vars(n, 5)
		n += 5
		cons = append(cons, expr.NewConstraint(expr.Sum(vs...), expr.GE, 1))
		cons = append(cons, expr.NewConstraint(expr.Sum(vs...), expr.LE, 3))
		for _, v := range vs {
			obj = obj.AddTerm(v, int64(2+g))
		}
	}
	return &solver.Problem{NumVars: n, Constraints: cons, Objective: obj}
}

// TestLiveSolveRoundTrip is the end-to-end contract of the read side:
// a real instrumented solve, serialized through the JSONL sink and
// parsed back by tracean, must reconstruct a valid span forest whose
// per-phase rollups agree with the solver's own Stats clocks.
func TestLiveSolveRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	reg := obs.NewRegistry()
	opts := solver.DefaultOptions()
	opts.MaxNodes = 50_000
	opts.Trace = obs.New(sink)
	opts.Metrics = reg
	res, err := solver.Maximize(context.Background(), liveProblem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	// ReadTrace validates start/end balance and parent containment; a
	// producer bug fails here without any further assertions.
	tr, err := tracean.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Schema != obs.SchemaVersion {
		t.Errorf("trace schema = %q, want %q", tr.Schema, obs.SchemaVersion)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "solver.solve" {
		t.Fatalf("roots = %+v, want a single solver.solve", tr.Roots)
	}

	rollups := map[string]tracean.Rollup{}
	for _, r := range tr.Rollups() {
		rollups[r.Name] = r
	}
	// Each phase span measures the same interval Stats clocks, so the
	// rollup totals must agree within scheduling tolerance.
	tol := func(want time.Duration) int64 {
		return int64(10*time.Millisecond) + want.Nanoseconds()/10
	}
	for _, tc := range []struct {
		phase string
		stat  time.Duration
	}{
		{"solver.solve", res.Stats.TotalTime},
		{"solver.prune", res.Stats.PruneTime},
		{"solver.presolve", res.Stats.PresolveTime},
		{"solver.search", res.Stats.SearchTime},
	} {
		r, ok := rollups[tc.phase]
		if !ok {
			t.Errorf("no rollup for %s", tc.phase)
			continue
		}
		if diff := r.TotalNs - tc.stat.Nanoseconds(); diff > tol(tc.stat) || diff < -tol(tc.stat) {
			t.Errorf("%s rollup total %v vs stats %v (diff %v)",
				tc.phase, time.Duration(r.TotalNs), tc.stat, time.Duration(diff))
		}
	}

	// The solver.hist events carry the latency histograms with counts
	// matching the registry snapshots.
	lp := reg.Histogram("solver.lp_ns").Snapshot()
	if lp.Count == 0 {
		t.Fatal("solver.lp_ns histogram empty on an LP-enabled solve")
	}
	var histNames []string
	for _, e := range tr.Events {
		if e.Kind == obs.KindEvent && e.Name == "solver.hist" {
			name, _ := e.Attrs["hist"].(string)
			histNames = append(histNames, name)
			if name == "solver.lp_ns" {
				if got, _ := e.Attrs["count"].(int64); got != lp.Count {
					t.Errorf("solver.hist count attr = %d, registry %d", got, lp.Count)
				}
			}
		}
	}
	if len(histNames) == 0 {
		t.Error("no solver.hist events in trace")
	}

	// Self times partition the root duration (within clamp rounding).
	var self int64
	for _, r := range tr.Rollups() {
		self += r.SelfNs
	}
	root := tr.Roots[0].DurNs
	if self > root {
		t.Errorf("self times sum %v exceed root %v", time.Duration(self), time.Duration(root))
	}
}
