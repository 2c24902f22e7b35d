package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestCellCarriesComponentsWhenDegraded is the regression test for
// the "degraded cells lose their problem shape" bug: component count
// and max component size come from the explain recorder, which
// registers the decomposition before any search work, so they survive
// a node budget that stops the search itself.
func TestCellCarriesComponentsWhenDegraded(t *testing.T) {
	cfg := tinyConfig()
	cfg.Solver.MaxNodes = 1
	cell, err := cfg.RunCell(SchemeK, cfg.Queries()[2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Quality == "exact" {
		t.Fatal("a 1-node budget cannot produce an exact cell")
	}
	if cell.Components <= 0 {
		t.Errorf("degraded %q cell lost its component count: %d", cell.Quality, cell.Components)
	}
	if cell.MaxCompVars <= 0 {
		t.Errorf("degraded %q cell lost its max component size: %d", cell.Quality, cell.MaxCompVars)
	}

	// The JSON view carries the same figures.
	var buf bytes.Buffer
	if err := WriteCellsJSON(&buf, []Cell{cell}); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d cells", len(out))
	}
	if v, ok := out[0]["components"].(float64); !ok || v <= 0 {
		t.Errorf("JSON components = %v, want > 0", out[0]["components"])
	}
	if v, ok := out[0]["max_comp_vars"].(float64); !ok || v <= 0 {
		t.Errorf("JSON max_comp_vars = %v, want > 0", out[0]["max_comp_vars"])
	}
}

// TestCellExplainReport: with Config.Explain the cell carries a valid
// licm-explain/1 report whose prune figures match the cell's own, and
// the report rides into the cell JSON.
func TestCellExplainReport(t *testing.T) {
	cfg := tinyConfig()
	cfg.Explain = true
	cell, err := cfg.RunCell(SchemeK, cfg.Queries()[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	rep := cell.Explain
	if rep == nil {
		t.Fatal("Config.Explain did not attach a report")
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Query != cell.Query || rep.Scheme != string(SchemeK) || rep.K != 2 {
		t.Errorf("report labels = %q/%q/%d, want %q/%q/2", rep.Query, rep.Scheme, rep.K, cell.Query, SchemeK)
	}
	if rep.Quality != cell.Quality {
		t.Errorf("report quality %q != cell quality %q", rep.Quality, cell.Quality)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("report has %d runs, want 2 (min and max)", len(rep.Runs))
	}
	if rep.Prune.VarsAfter != cell.VarsPruned || rep.Prune.ConsAfter != cell.ConsPruned {
		t.Errorf("report prune %+v != cell (%d vars, %d cons)", rep.Prune, cell.VarsPruned, cell.ConsPruned)
	}
	for _, run := range rep.Runs {
		if len(run.Components) != cell.Components {
			t.Errorf("%s run has %d components, cell says %d", run.Sense, len(run.Components), cell.Components)
		}
		for _, c := range run.Components {
			if len(c.Fingerprint) != 16 {
				t.Errorf("%s component %d fingerprint %q", run.Sense, c.Index, c.Fingerprint)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteCellsJSON(&buf, []Cell{cell}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"explain"`) || !strings.Contains(buf.String(), `"fingerprint"`) {
		t.Error("cell JSON does not embed the explain report")
	}

	// Without the flag the report is absent and the JSON omits it.
	cfg.Explain = false
	cell, err = cfg.RunCell(SchemeK, cfg.Queries()[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Explain != nil {
		t.Error("report attached without Config.Explain")
	}
	buf.Reset()
	if err := WriteCellsJSON(&buf, []Cell{cell}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"explain"`) {
		t.Error("cell JSON carries an explain key without Config.Explain")
	}
}
