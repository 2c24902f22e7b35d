package cert_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"licm/internal/cert"
	"licm/internal/expr"
	"licm/internal/solver"
)

// knapCardProblem is a deterministic mixed problem: a global knapsack
// row plus disjoint cardinality groups — the same shape the paper's
// queries produce after translation, hard enough that certification
// exercises LP leaves and (on the cycle groups) branching.
func knapCardProblem() *solver.Problem {
	const n = 24
	obj := expr.Lin{}
	knap := expr.Lin{}
	for v := 0; v < n; v++ {
		obj = obj.AddTerm(expr.Var(v), int64(1+(v*7)%5))
		knap = knap.AddTerm(expr.Var(v), int64(1+(v*3)%4))
	}
	cons := []expr.Constraint{expr.NewConstraint(knap, expr.LE, 18)}
	for g := 0; g < 4; g++ {
		lo := expr.Var(g * 6)
		cons = append(cons,
			expr.NewConstraint(expr.Sum(lo, lo+1, lo+2, lo+3, lo+4, lo+5), expr.LE, 3),
			expr.NewConstraint(expr.Sum(lo, lo+1), expr.GE, 1),
		)
	}
	return &solver.Problem{NumVars: n, Constraints: cons, Objective: obj}
}

// solveCertified solves p in both senses and returns the built
// certificates plus the two results.
func solveCertified(t *testing.T, p *solver.Problem) ([]*cert.Certificate, solver.Result, solver.Result) {
	t.Helper()
	rec := &solver.ExplainRecorder{}
	opts := solver.DefaultOptions()
	opts.Explain = rec
	minRes, maxRes, err := solver.Bounds(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	certs, err := cert.Build("q", "row", 2, solver.Certify(context.Background(), rec))
	if err != nil {
		t.Fatal(err)
	}
	return certs, minRes, maxRes
}

// TestRoundTripVerify: live certificates survive a strict JSONL round
// trip, verify clean, and the verified values equal the solver's
// reported results exactly — the end-to-end soundness contract the CI
// cert gate enforces.
func TestRoundTripVerify(t *testing.T) {
	certs, minRes, maxRes := solveCertified(t, knapCardProblem())
	if len(certs) != 2 {
		t.Fatalf("built %d certificates, want 2 (max then min)", len(certs))
	}

	var buf bytes.Buffer
	for _, c := range certs {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := cert.WriteJSONL(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	back, err := cert.ReadJSONL(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read back %d certificates, want 2", len(back))
	}

	for i, c := range back {
		v, err := cert.Verify(c)
		if err != nil {
			t.Fatalf("certificate %d rejected: %v", i, err)
		}
		if len(v.Skipped) != 0 {
			t.Fatalf("certificate %d has skipped components: %v", i, v.Skipped)
		}
		if !v.Proven || v.Err != "" {
			t.Fatalf("certificate %d verdict %+v, want clean proven", i, v)
		}
		if v.Verified != len(c.Comps) {
			t.Fatalf("certificate %d verified %d of %d components", i, v.Verified, len(c.Comps))
		}
		if v.Query != "q" || c.Scheme != "row" || c.K != 2 {
			t.Fatalf("certificate %d lost its labels: %+v", i, v)
		}
	}
	// The verified values must equal the solver results exactly (the
	// min run is recorded in the negated maximization frame).
	if back[0].Sense != "max" || back[0].Value != maxRes.Value {
		t.Fatalf("max certificate value %d, solver reported %d", back[0].Value, maxRes.Value)
	}
	if back[1].Sense != "min" || back[1].Value != -minRes.Value {
		t.Fatalf("min certificate value %d, solver reported minimum %d", back[1].Value, minRes.Value)
	}
}

// TestVerifyReusedComponents: a component the solve did not search,
// because an earlier component of the run had the same matrix, carries
// that component's outcome and witness; its certificate verifies like
// any other, and the values still add up to the solver's.
func TestVerifyReusedComponents(t *testing.T) {
	// Three copies of one "at most two of four, one of the first two"
	// block, then a block with other weights.
	var cons []expr.Constraint
	obj := expr.Lin{}
	for b, w := range [][4]int64{{3, 1, 4, 1}, {3, 1, 4, 1}, {3, 1, 4, 1}, {2, 7, 1, 8}} {
		lo := expr.Var(4 * b)
		cons = append(cons,
			expr.NewConstraint(expr.Sum(lo, lo+1, lo+2, lo+3), expr.LE, 2),
			expr.NewConstraint(expr.Sum(lo, lo+1), expr.GE, 1))
		for i, c := range w {
			obj = obj.AddTerm(lo+expr.Var(i), c)
		}
	}
	p := &solver.Problem{NumVars: 16, Constraints: cons, Objective: obj}
	rec := &solver.ExplainRecorder{}
	opts := solver.DefaultOptions()
	opts.Explain = rec
	minRes, maxRes, err := solver.Bounds(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range rec.Runs() {
		for ci, c := range run.Components {
			if reused := ci == 1 || ci == 2; c.Reused != reused {
				t.Fatalf("%s run component %d: Reused = %v, want %v", run.Sense, ci, c.Reused, reused)
			}
		}
	}
	certs, err := cert.Build("q", "row", 2, solver.Certify(context.Background(), rec))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"max": maxRes.Value, "min": -minRes.Value}
	for i, c := range certs {
		v, err := cert.Verify(c)
		if err != nil {
			t.Fatalf("certificate %d rejected: %v", i, err)
		}
		if !v.Proven || v.Verified != 4 || len(v.Skipped) != 0 {
			t.Fatalf("certificate %d verdict %+v, want 4 verified components", i, v)
		}
		if c.Value != want[c.Sense] {
			t.Errorf("%s certificate value %d, solver reported %d", c.Sense, c.Value, want[c.Sense])
		}
	}
}

// rejected reports whether a mutant fails the strict read or the
// verifier — every deliberate corruption must trip at least one gate.
func rejected(t *testing.T, m cert.Mutant) bool {
	t.Helper()
	var buf bytes.Buffer
	if err := cert.WriteJSONL(&buf, m.Cert); err != nil {
		t.Fatal(err)
	}
	back, err := cert.ReadJSONL(&buf, true)
	if err != nil {
		return true
	}
	if len(back) != 1 {
		t.Fatalf("mutant %s: read %d certificates", m.Name, len(back))
	}
	_, err = cert.Verify(back[0])
	return err != nil
}

// TestMutantsRejected: every deterministic corruption of a live
// certificate is rejected.
func TestMutantsRejected(t *testing.T) {
	certs, _, _ := solveCertified(t, knapCardProblem())
	for _, c := range certs {
		muts := cert.Mutants(c)
		if len(muts) < 6 {
			t.Fatalf("only %d mutants generated for a live certificate", len(muts))
		}
		names := map[string]bool{}
		for _, m := range muts {
			names[m.Name] = true
			if !rejected(t, m) {
				t.Errorf("mutant %q accepted by the verifier", m.Name)
			}
		}
		for _, want := range []string{"value-inflate", "witness-flip", "fingerprint-tamper", "rhs-tamper", "schema-tag"} {
			if !names[want] {
				t.Errorf("mutant suite missing %q (got %v)", want, names)
			}
		}
	}
}

// TestVerifyInfeasible: an infeasible store certifies with farkas
// trees that verify clean; the run records its error, so no value
// accounting is claimed.
func TestVerifyInfeasible(t *testing.T) {
	cons := []expr.Constraint{
		expr.NewConstraint(expr.Sum(0, 1, 2), expr.GE, 2),
		expr.NewConstraint(expr.Sum(0, 1, 2), expr.LE, 1),
	}
	p := &solver.Problem{NumVars: 3, Constraints: cons, Objective: expr.Sum(0)}
	rec := &solver.ExplainRecorder{}
	opts := solver.DefaultOptions()
	opts.Explain = rec
	if _, err := solver.Maximize(context.Background(), p, opts); !errors.Is(err, solver.ErrInfeasible) {
		t.Fatalf("err = %v, want infeasible", err)
	}
	certs, err := cert.Build("", "", 0, solver.Certify(context.Background(), rec))
	if err != nil {
		t.Fatal(err)
	}
	if len(certs) != 1 {
		t.Fatalf("built %d certificates, want 1", len(certs))
	}
	v, err := cert.Verify(certs[0])
	if err != nil {
		t.Fatalf("infeasibility certificate rejected: %v", err)
	}
	if v.Err == "" || v.Verified == 0 {
		t.Fatalf("verdict %+v, want a verified infeasibility with the run error recorded", v)
	}
}

// TestVerifySkipped: components the solver could not prove are carried
// as skipped — accepted by Verify but surfaced on the verdict for
// -strict to flag.
func TestVerifySkipped(t *testing.T) {
	p := knapCardProblem()
	rec := &solver.ExplainRecorder{}
	opts := solver.DefaultOptions()
	opts.UseLP = false
	opts.MaxNodes = 20
	opts.Explain = rec
	res, err := solver.Maximize(context.Background(), p, opts)
	if err != nil {
		t.Skipf("budget starved before a feasible point: %v", err)
	}
	if res.Proven {
		t.Skip("solve unexpectedly proven; cannot exercise the skip path")
	}
	certs, err := cert.Build("", "", 0, solver.Certify(context.Background(), rec))
	if err != nil {
		t.Fatal(err)
	}
	v, err := cert.Verify(certs[0])
	if err != nil {
		t.Fatalf("certificate with skipped components rejected: %v", err)
	}
	if len(v.Skipped) == 0 {
		t.Fatal("unproven solve produced no skipped components")
	}
	for _, s := range v.Skipped {
		if !strings.Contains(s, "unproven") {
			t.Fatalf("skip reason %q does not name the cause", s)
		}
	}
}

// TestVerifyRejectsHandEdits: targeted manual corruptions beyond the
// Mutants suite — a forged leaf bound and a truncated tree.
func TestVerifyRejectsHandEdits(t *testing.T) {
	certs, _, _ := solveCertified(t, knapCardProblem())

	// Truncate the first component's tree entirely: an optimal claim
	// with no proof tree must be rejected.
	var buf bytes.Buffer
	if err := cert.WriteJSONL(&buf, certs[0]); err != nil {
		t.Fatal(err)
	}
	back, err := cert.ReadJSONL(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	cp := back[0]
	for i := range cp.Comps {
		if cp.Comps[i].Status == cert.StatusOptimal {
			cp.Comps[i].Tree = nil
			break
		}
	}
	if _, err := cert.Verify(cp); err == nil {
		t.Fatal("optimal component with no proof tree accepted")
	}
}
