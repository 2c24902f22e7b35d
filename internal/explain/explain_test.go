package explain

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"licm/internal/expr"
	"licm/internal/solver"
	"licm/internal/super"
)

// liveProblem is a four-component instance where every component is a
// hard weighted knapsack bounded from both sides (profits nearly
// proportional to weights — the classic B&B-hostile case), so both
// the max and the min sense spend milliseconds in real search and the
// per-component wall times dominate the search phase.
func liveProblem() *solver.Problem {
	const nComp, nVar = 4, 20
	var cons []expr.Constraint
	obj := expr.Lin{}
	n := 0
	for c := 0; c < nComp; c++ {
		w := expr.Lin{}
		var totW int64
		for i := 0; i < nVar; i++ {
			v := expr.Var(n + i)
			wi := int64(3 + (i*7+c*5)%13)
			w = w.AddTerm(v, wi)
			totW += wi
			obj = obj.AddTerm(v, wi+int64(i%3))
		}
		n += nVar
		cons = append(cons, expr.NewConstraint(w, expr.LE, totW/2))
		cons = append(cons, expr.NewConstraint(w, expr.GE, totW/4))
	}
	return &solver.Problem{NumVars: n, Constraints: cons, Objective: obj}
}

// TestExplainReportRoundTrip is the live acceptance test: solve both
// senses with a recorder, build the report, and check (a) the
// per-component counter sums equal the solver's Stats exactly, (b)
// per-component time shares sum to within 5% of the run's search
// time, and (c) the report survives a strict JSONL round trip intact.
func TestExplainReportRoundTrip(t *testing.T) {
	p := liveProblem()
	rec := &solver.ExplainRecorder{}
	opts := solver.DefaultOptions()
	opts.Explain = rec
	min, max, err := solver.Bounds(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := Build("roundtrip", rec)
	rep.Scheme = "k"
	rep.K = 3
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Quality != "" {
		t.Errorf("quality = %q, want empty (the caller holding the outcome sets it)", rep.Quality)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(rep.Runs))
	}
	stats := map[string]solver.Stats{"max": max.Stats, "min": min.Stats}
	for _, run := range rep.Runs {
		st, ok := stats[run.Sense]
		if !ok {
			t.Fatalf("unexpected sense %q", run.Sense)
		}
		var nodes, lps, solveNs int64
		for _, c := range run.Components {
			if c.Fingerprint == "" || !c.Solved {
				t.Errorf("%s: component %d unsolved or unfingerprinted: %+v", run.Sense, c.Index, c)
			}
			nodes += c.Nodes
			lps += c.LPSolves
			solveNs += c.SolveNs
		}
		if nodes != st.Nodes || lps != st.LPSolves {
			t.Errorf("%s: component sums (%d nodes, %d lp) != stats (%d, %d)",
				run.Sense, nodes, lps, st.Nodes, st.LPSolves)
		}
		if run.SearchNs <= 0 {
			t.Fatalf("%s: search time missing", run.Sense)
		}
		share := float64(solveNs) / float64(run.SearchNs)
		if math.Abs(share-1) > 0.05 {
			t.Errorf("%s: component time shares sum to %.1f%% of search time (solve=%dns search=%dns), want within 5%%",
				run.Sense, share*100, solveNs, run.SearchNs)
		}
	}
	// The two senses see the same structure but different objectives,
	// so the fingerprint sets must be disjoint.
	maxFPs := map[string]bool{}
	for _, run := range rep.Runs {
		for _, c := range run.Components {
			if run.Sense == "max" {
				maxFPs[c.Fingerprint] = true
			} else if maxFPs[c.Fingerprint] {
				t.Errorf("min component shares fingerprint %s with a max component", c.Fingerprint)
			}
		}
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(&got[0], rep) {
		t.Errorf("JSONL round trip changed the report")
	}
}

// TestExplainSupervisedTagging: a supervised Bounds call stamps each
// side's ladder verdict onto its recorded runs, and the built report
// carries those run tags.
func TestExplainSupervisedTagging(t *testing.T) {
	rec := &solver.ExplainRecorder{}
	cfg := super.Config{Solver: solver.DefaultOptions()}
	cfg.Solver.Explain = rec
	out := super.Bounds(context.Background(), liveProblem(), cfg)
	if out.Quality != super.Exact {
		t.Fatalf("outcome quality = %v, want exact", out.Quality)
	}
	rep := Build("supervised", rec)
	for _, run := range rep.Runs {
		if run.Quality != "exact" {
			t.Errorf("%s run quality = %q, want exact", run.Sense, run.Quality)
		}
	}

	// A starved node budget degrades below exact; the tags follow.
	rec = &solver.ExplainRecorder{}
	cfg.Solver.Explain = rec
	cfg.Solver.MaxNodes = 1
	out = super.Bounds(context.Background(), liveProblem(), cfg)
	if out.Quality == super.Exact {
		t.Fatal("starved solve still finished exactly")
	}
	rep = Build("degraded", rec)
	sides := map[string]super.Quality{"min": out.Min.Quality, "max": out.Max.Quality}
	degraded := false
	for _, run := range rep.Runs {
		if want := sides[run.Sense].String(); run.Quality != want {
			t.Errorf("%s run quality = %q, want its side's %q", run.Sense, run.Quality, want)
		}
		degraded = degraded || run.Quality != "exact"
	}
	if !degraded {
		t.Error("no run of the degraded solve carries a degraded tag")
	}
}

// TestReadJSONLStrict covers the schema-drift guard: unknown fields
// and wrong schema tags fail in strict mode but pass in lax mode.
func TestReadJSONLStrict(t *testing.T) {
	good := `{"schema":"licm-explain/1","query":"q","prune":{"vars_before":1,"cons_before":1,"vars_after":1,"cons_after":1,"fixed_by_presolve":0},"runs":[]}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(good), true); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	drift := `{"schema":"licm-explain/1","runs":[],"prune":{},"surprise":42}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(drift), true); err == nil {
		t.Error("unknown field accepted in strict mode")
	}
	if _, err := ReadJSONL(strings.NewReader(drift), false); err != nil {
		t.Errorf("lax mode rejected unknown field: %v", err)
	}
	wrong := `{"schema":"licm-explain/9","runs":[],"prune":{}}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(wrong), true); err == nil {
		t.Error("wrong schema accepted in strict mode")
	}
	bad := "{not json}\n"
	if _, err := ReadJSONL(strings.NewReader(bad), false); err == nil {
		t.Error("malformed line accepted")
	}
	// Blank lines are skipped in either mode.
	if reps, err := ReadJSONL(strings.NewReader("\n"+good+"\n"), true); err != nil || len(reps) != 1 {
		t.Errorf("blank-line handling: %d reports, err %v", len(reps), err)
	}
}
