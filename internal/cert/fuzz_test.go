package cert_test

// FuzzCertRoundTrip drives the full certificate pipeline on random
// small stores: certify a live solve, round-trip the certificate
// through strict JSONL, verify it clean, then demand that every
// deterministic corruption of it is rejected. This is the executable
// form of the soundness contract: a correct solve always yields an
// accepted certificate, and no mutant ever survives.

import (
	"bytes"
	"context"
	"testing"

	"licm/internal/cert"
	"licm/internal/expr"
	"licm/internal/solver"
)

// fuzzReader drains a fuzz payload one bounded value at a time.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzReader) intn(n int) int { return int(r.byte()) % n }

func (r *fuzzReader) done() bool { return r.pos >= len(r.data) }

// genProblem builds a random small store: up to 10 variables, up to
// 10 rows mixing small-coefficient constraints over arbitrary
// variable subsets with unit cardinality rows.
func genProblem(r *fuzzReader) *solver.Problem {
	numVars := 1 + r.intn(10)
	var cons []expr.Constraint
	for len(cons) < 10 && !r.done() {
		nTerms := 1 + r.intn(5)
		lin := expr.Lin{}
		seen := map[expr.Var]bool{}
		added := 0
		for t := 0; t < nTerms; t++ {
			v := expr.Var(r.intn(numVars))
			if seen[v] {
				continue
			}
			seen[v] = true
			coef := int64(r.intn(5)) - 2
			if coef == 0 {
				coef = 1
			}
			lin = lin.AddTerm(v, coef)
			added++
		}
		if added == 0 {
			continue
		}
		op := expr.Op(r.intn(3))
		rhs := int64(r.intn(9)) - 3
		cons = append(cons, expr.NewConstraint(lin, op, rhs))
	}
	obj := expr.Lin{}
	for v := 0; v < numVars; v++ {
		obj = obj.AddTerm(expr.Var(v), int64(r.intn(7))-3)
	}
	return &solver.Problem{NumVars: numVars, Constraints: cons, Objective: obj}
}

func FuzzCertRoundTrip(f *testing.F) {
	f.Add([]byte{5, 3, 1, 0, 2, 2, 1, 4, 7, 3, 0, 1})
	f.Add([]byte{9, 4, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6})
	f.Add([]byte{1, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			t.Skip()
		}
		p := genProblem(&fuzzReader{data: data})
		rec := &solver.ExplainRecorder{}
		opts := solver.DefaultOptions()
		opts.Explain = rec
		res, solveErr := solver.Maximize(context.Background(), p, opts)
		certs, err := cert.Build("fuzz", "", 0, solver.Certify(context.Background(), rec))
		if err != nil {
			t.Fatal(err)
		}
		if len(certs) != 1 {
			t.Fatalf("built %d certificates, want 1", len(certs))
		}

		var buf bytes.Buffer
		if err := cert.WriteJSONL(&buf, certs[0]); err != nil {
			t.Fatal(err)
		}
		back, err := cert.ReadJSONL(&buf, true)
		if err != nil {
			t.Fatalf("strict round trip failed: %v", err)
		}
		c := back[0]

		v, err := cert.Verify(c)
		if err != nil {
			t.Fatalf("live certificate rejected: %v (solve err %v)", err, solveErr)
		}
		if solveErr == nil && res.Proven {
			if len(v.Skipped) != 0 {
				t.Fatalf("proven solve produced skipped components: %v", v.Skipped)
			}
			if c.Value != res.Value {
				t.Fatalf("certificate value %d, solver reported %d", c.Value, res.Value)
			}
		}

		for _, m := range cert.Mutants(c) {
			var mb bytes.Buffer
			if err := cert.WriteJSONL(&mb, m.Cert); err != nil {
				t.Fatal(err)
			}
			mback, err := cert.ReadJSONL(&mb, true)
			if err != nil {
				continue // rejected at the strict-read gate
			}
			if _, err := cert.Verify(mback[0]); err == nil {
				t.Fatalf("mutant %q accepted by the verifier", m.Name)
			}
		}
	})
}
