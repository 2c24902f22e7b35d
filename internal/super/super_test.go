package super_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"licm/internal/expr"
	"licm/internal/faultinject"
	"licm/internal/solver"
	"licm/internal/super"
)

// groupsProblem is the DFS-path fixture: nGroups independent
// "at least one of three" groups, count objective. Many small
// components, so faults sweep across component boundaries.
func groupsProblem(nGroups int) *solver.Problem {
	var cons []expr.Constraint
	var all []expr.Var
	for g := 0; g < nGroups; g++ {
		vs := []expr.Var{expr.Var(3 * g), expr.Var(3*g + 1), expr.Var(3*g + 2)}
		all = append(all, vs...)
		cons = append(cons, expr.NewConstraint(expr.Sum(vs...), expr.GE, 1))
	}
	return &solver.Problem{NumVars: 3 * nGroups, Constraints: cons, Objective: expr.Sum(all...)}
}

// distinctGroupsProblem is groupsProblem with group g's variables
// weighted g+1 in the objective. groupsProblem's components are all
// equal, so a solve searches one and reuses its outcome for the rest;
// here no two components are equal, each one is searched, and faults
// reach the batch boundaries of every component.
func distinctGroupsProblem(nGroups int) *solver.Problem {
	p := groupsProblem(nGroups)
	terms := make([]expr.Term, p.NumVars)
	for v := range terms {
		terms[v] = expr.Term{Var: expr.Var(v), Coef: int64(v/3 + 1)}
	}
	p.Objective = expr.NewLin(0, terms...)
	return p
}

// orCountProblem is the LP-path fixture: customer records constrained
// to [1,2] present per customer, region OR variables as the objective —
// the fixture family the solver's LP-guided tests use, rebuilt here
// against the public API. One large component, so faults land inside
// LP-bounded search and simplex pivots.
func orCountProblem(nCustomers, nRegions int, seed int64) *solver.Problem {
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
	return &solver.Problem{
		NumVars:     numVars,
		Constraints: cons,
		Objective:   expr.NewLin(0, objTerms...),
		Derived:     derived,
	}
}

// exactRef computes the trusted reference interval with the plain
// (unsupervised, unfaulted) solver.
func exactRef(t *testing.T, p *solver.Problem) (int64, int64) {
	t.Helper()
	min, max, err := solver.Bounds(context.Background(), p, solver.DefaultOptions())
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	if !min.Proven || !max.Proven {
		t.Fatalf("reference solve unproven — fixture too hard")
	}
	return min.Value, max.Value
}

func chaosConfig() super.Config {
	return super.Config{
		Solver: solver.DefaultOptions(),
		// A stub fallback so the bottom of the ladder is Sampled, not
		// Failed; values are irrelevant to the proven-side assertions.
		Sample: func() (int64, int64, bool) { return 0, 0, true },
	}
}

// checkOutcome asserts the quality tag's claim against the reference:
// Exact must equal it, ProvenInterval must contain it, Sampled/Failed
// claim nothing.
func checkOutcome(t *testing.T, label string, out super.Outcome, refMin, refMax int64) {
	t.Helper()
	switch out.Quality {
	case super.Exact:
		if out.Min.Lo != refMin || out.Min.Hi != refMin || out.Max.Lo != refMax || out.Max.Hi != refMax {
			t.Errorf("%s: Exact outcome min[%d,%d] max[%d,%d] != reference [%d,%d]",
				label, out.Min.Lo, out.Min.Hi, out.Max.Lo, out.Max.Hi, refMin, refMax)
		}
	case super.ProvenInterval:
		if out.Min.Lo > refMin || out.Min.Hi < refMin {
			t.Errorf("%s: min interval [%d,%d] excludes true min %d", label, out.Min.Lo, out.Min.Hi, refMin)
		}
		if out.Max.Lo > refMax || out.Max.Hi < refMax {
			t.Errorf("%s: max interval [%d,%d] excludes true max %d", label, out.Max.Lo, out.Max.Hi, refMax)
		}
	}
	// Per-side proven claims hold regardless of the overall tag.
	for _, sd := range []struct {
		name string
		s    super.Side
		ref  int64
	}{{"min", out.Min, refMin}, {"max", out.Max, refMax}} {
		if sd.s.Quality >= super.ProvenInterval && (sd.s.Lo > sd.ref || sd.s.Hi < sd.ref) {
			t.Errorf("%s: %s side [%d,%d] excludes true value %d", label, sd.name, sd.s.Lo, sd.s.Hi, sd.ref)
		}
	}
}

// TestChaosSweep is the harness's centerpiece: inject a fault at every
// reachable batch boundary (and a sample of LP pivots) of a fixed-seed
// supervised solve, and require that the supervisor never lets a panic
// escape and never mislabels a degraded result. Each probe carries its
// own plan on its own context, so the probes run as parallel subtests.
// "groups" sweeps the boundaries of many distinct components;
// "groups-reused" faults the one search whose outcome equal components
// take over.
func TestChaosSweep(t *testing.T) {
	fixtures := []struct {
		name string
		p    *solver.Problem
		lp   bool // the solve must reach LP pivots
	}{
		{"groups", distinctGroupsProblem(20), false},
		{"groups-reused", groupsProblem(20), false},
		// 124 customers: the supervised solve reaches 275 LP pivots,
		// so the pivot probes stride 11 over hits 0..264. At 60
		// customers the direction dive closes enough components
		// without an LP to leave 125 pivots.
		{"orcount", orCountProblem(124, 6, 3), true},
	}
	siteActions := map[faultinject.Site][]faultinject.Action{
		faultinject.CtrlBatch: {faultinject.Panic, faultinject.Cancel},
		faultinject.LPPivot:   {faultinject.Panic, faultinject.JitterNaN, faultinject.JitterInf},
	}
	for _, fx := range fixtures {
		refMin, refMax := exactRef(t, fx.p)

		// Counting pass: an inert plan records how many times each site
		// is reached by the full supervised solve.
		counting := faultinject.With(context.Background(),
			faultinject.Plan{Site: faultinject.CtrlBatch, Hit: -1, Action: faultinject.None})
		out := super.Bounds(counting, fx.p, chaosConfig())
		inj := faultinject.From(counting)
		hits := map[faultinject.Site]int64{
			faultinject.CtrlBatch: inj.Hits(faultinject.CtrlBatch),
			faultinject.LPPivot:   inj.Hits(faultinject.LPPivot),
		}
		if out.Quality != super.Exact {
			t.Fatalf("%s: unfaulted supervised solve quality = %v, want Exact", fx.name, out.Quality)
		}
		checkOutcome(t, fx.name+"/clean", out, refMin, refMax)
		if hits[faultinject.CtrlBatch] == 0 {
			t.Fatalf("%s: no ctrl batch boundaries reached — sweep would be empty", fx.name)
		}
		if fx.lp && hits[faultinject.LPPivot] == 0 {
			t.Fatalf("%s: no LP pivots reached — the sweep would lose its NaN/Inf pivot probes", fx.name)
		}

		for site, actions := range siteActions {
			n := hits[site]
			if n == 0 {
				continue
			}
			// Sweep every hit when cheap, else stride to ~24 probes.
			step := n / 24
			if step < 1 {
				step = 1
			}
			for _, action := range actions {
				for h := int64(0); h < n; h += step {
					label := fmt.Sprintf("%s/%s/%s/%d", fx.name, site, action, h)
					t.Run(label, func(t *testing.T) {
						t.Parallel()
						ctx := faultinject.With(context.Background(),
							faultinject.Plan{Site: site, Hit: h, Action: action})
						out := super.Bounds(ctx, fx.p, chaosConfig())
						checkOutcome(t, label, out, refMin, refMax)
						if action == faultinject.Panic && out.PanicsRecovered == 0 {
							t.Errorf("%s: injected panic was not recorded as recovered", label)
						}
					})
				}
			}
		}
	}
}

// TestDeadlineAlreadyExpired: a spent deadline must degrade to
// Sampled (or Failed without a sampler) immediately — never hang,
// never claim proof.
func TestDeadlineAlreadyExpired(t *testing.T) {
	p := orCountProblem(60, 6, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan super.Outcome, 1)
	go func() { done <- super.Bounds(ctx, p, chaosConfig()) }()
	select {
	case out := <-done:
		if out.Quality != super.Sampled {
			t.Fatalf("quality = %v, want Sampled (stub sampler configured)", out.Quality)
		}
		if out.Min.Err == nil || out.Max.Err == nil {
			t.Fatal("degraded sides must carry the terminal error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("supervised solve hung on an expired deadline")
	}

	cfg := chaosConfig()
	cfg.Sample = nil
	out := super.Bounds(ctx, p, cfg)
	if out.Quality != super.Failed {
		t.Fatalf("quality without sampler = %v, want Failed", out.Quality)
	}
}

// TestDeadlineMidSolve: a deadline that can expire during the search
// still yields an honestly-labeled result.
func TestDeadlineMidSolve(t *testing.T) {
	p := orCountProblem(120, 10, 7)
	refMin, refMax := exactRef(t, p)
	for _, d := range []time.Duration{time.Nanosecond, 200 * time.Microsecond, 50 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		out := super.Bounds(ctx, p, chaosConfig())
		cancel()
		checkOutcome(t, "deadline "+d.String(), out, refMin, refMax)
	}
}

// TestRetryAfterPanicReachesExact: a single injected panic must be
// absorbed by the perturbed-order retry, ending Exact.
func TestRetryAfterPanicReachesExact(t *testing.T) {
	p := groupsProblem(12)
	refMin, refMax := exactRef(t, p)
	out := super.Bounds(panicAtFirstBatch(), p, chaosConfig())
	if out.Quality != super.Exact {
		t.Fatalf("quality = %v, want Exact after retry", out.Quality)
	}
	if out.Retries != 1 || out.PanicsRecovered != 1 {
		t.Fatalf("retries=%d panics=%d, want 1/1", out.Retries, out.PanicsRecovered)
	}
	checkOutcome(t, "retry", out, refMin, refMax)
}

// panicAtFirstBatch returns a context whose plan panics at the first
// ctrl batch boundary.
func panicAtFirstBatch() context.Context {
	return faultinject.With(context.Background(),
		faultinject.Plan{Site: faultinject.CtrlBatch, Hit: 0, Action: faultinject.Panic})
}

// TestFaultPlanIsolation: a fault plan reaches only the solves run
// under the context it rides. Faulted and plain supervised solves run
// at the same time; every plain one must come back Exact and untouched,
// and every faulted one must recover exactly its own panic.
func TestFaultPlanIsolation(t *testing.T) {
	p := groupsProblem(12)
	refMin, refMax := exactRef(t, p)
	// A cancelable context gives the plain solves live ctrl flushes, so
	// they pass the same hook sites as the faulted ones.
	plainCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const pairs = 8
	plain := make([]super.Outcome, pairs)
	faulted := make([]super.Outcome, pairs)
	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); faulted[i] = super.Bounds(panicAtFirstBatch(), p, chaosConfig()) }()
		go func() { defer wg.Done(); plain[i] = super.Bounds(plainCtx, p, chaosConfig()) }()
	}
	wg.Wait()
	for i := 0; i < pairs; i++ {
		if out := plain[i]; out.Quality != super.Exact || out.PanicsRecovered != 0 || out.Retries != 0 {
			t.Errorf("plain solve %d: quality=%v panics=%d retries=%d, want exact/0/0",
				i, out.Quality, out.PanicsRecovered, out.Retries)
		}
		if out := faulted[i]; out.Quality != super.Exact || out.PanicsRecovered != 1 {
			t.Errorf("faulted solve %d: quality=%v panics=%d, want exact/1",
				i, out.Quality, out.PanicsRecovered)
		}
		checkOutcome(t, fmt.Sprintf("plain %d", i), plain[i], refMin, refMax)
		checkOutcome(t, fmt.Sprintf("faulted %d", i), faulted[i], refMin, refMax)
	}
}

// TestInfeasibleIsExact: proven infeasibility is a fact, not a
// degradation.
func TestInfeasibleIsExact(t *testing.T) {
	v := []expr.Var{0, 1}
	p := &solver.Problem{
		NumVars: 2,
		Constraints: []expr.Constraint{
			expr.NewConstraint(expr.Sum(v...), expr.GE, 2),
			expr.NewConstraint(expr.Sum(v...), expr.LE, 1),
		},
		Objective: expr.Sum(v...),
	}
	out := super.Bounds(context.Background(), p, chaosConfig())
	if !out.Infeasible || out.Quality != super.Exact {
		t.Fatalf("infeasible=%v quality=%v, want true/Exact", out.Infeasible, out.Quality)
	}
}

// TestSupervisorWarnLogging: the supervisor boundary emits structured
// warn records for degradation and recovered panics when Config.Log is
// set, stays silent on clean exact solves, and tolerates a nil logger.
func TestSupervisorWarnLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))

	// Every record must be one valid JSON object at level WARN.
	checkRecords := func(wantMsg string) {
		t.Helper()
		found := false
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log line is not JSON: %q: %v", line, err)
			}
			if rec["level"] != "WARN" {
				t.Errorf("level = %v, want WARN: %q", rec["level"], line)
			}
			if rec["msg"] == wantMsg {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q record in:\n%s", wantMsg, buf.String())
		}
	}

	// Degradation: an already-expired deadline lands on the sampled rung.
	p := orCountProblem(60, 6, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := chaosConfig()
	cfg.Log = logger
	if out := super.Bounds(ctx, p, cfg); out.Quality != super.Sampled {
		t.Fatalf("quality = %v, want Sampled", out.Quality)
	}
	checkRecords("supervised solve degraded")

	// Panic recovery: one injected panic is absorbed, retried, and logged.
	buf.Reset()
	out := super.Bounds(panicAtFirstBatch(), groupsProblem(12), cfg)
	if out.PanicsRecovered != 1 {
		t.Fatalf("panics recovered = %d, want 1", out.PanicsRecovered)
	}
	checkRecords("solver panic recovered at supervisor boundary")

	// A clean exact solve logs nothing at warn level.
	buf.Reset()
	if out := super.Bounds(context.Background(), groupsProblem(12), cfg); out.Quality != super.Exact {
		t.Fatalf("quality = %v, want Exact", out.Quality)
	}
	if buf.Len() != 0 {
		t.Errorf("clean solve produced warn records:\n%s", buf.String())
	}

	// Nil logger on a degraded solve must not panic.
	if out := super.Bounds(ctx, p, chaosConfig()); out.Quality != super.Sampled {
		t.Fatalf("nil-logger quality = %v, want Sampled", out.Quality)
	}
}
