package solver_test

import (
	"context"
	"testing"

	"licm/internal/cert"
	"licm/internal/solver"
)

// TestDiveProvenComponentCertifies: the min side that the first dive
// closes without an LP gets a certificate internal/cert verifies, as
// does the max side that needed its root relaxation.
func TestDiveProvenComponentCertifies(t *testing.T) {
	p := solver.LineageCount(6, 4, 2)
	rec := &solver.ExplainRecorder{}
	opts := solver.DefaultOptions()
	opts.Explain = rec
	minRes, maxRes, err := solver.Bounds(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if minRes.Stats.LPSolves != 0 {
		t.Fatalf("min side: %d LP solves, want the dive to close it", minRes.Stats.LPSolves)
	}
	certs, err := cert.Build("lineage-count", "row", 2, solver.Certify(context.Background(), rec))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"max": maxRes.Value, "min": -minRes.Value}
	if len(certs) != len(want) {
		t.Fatalf("built %d certificates, want %d", len(certs), len(want))
	}
	for _, c := range certs {
		v, err := cert.Verify(c)
		if err != nil {
			t.Fatalf("%s certificate rejected: %v", c.Sense, err)
		}
		if !v.Proven || v.Err != "" || len(v.Skipped) != 0 || v.Verified != len(c.Comps) {
			t.Fatalf("%s certificate verdict %+v, want every component verified", c.Sense, v)
		}
		if c.Value != want[c.Sense] {
			t.Fatalf("%s certificate value %d, want %d", c.Sense, c.Value, want[c.Sense])
		}
	}
}
