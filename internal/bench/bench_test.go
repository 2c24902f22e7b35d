package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.NumTransactions = 120
	cfg.NumItems = 64
	cfg.Ks = []int{2, 4}
	cfg.MCSamples = 5
	cfg.Q3Frac = 0.1
	cfg.Solver.MaxNodes = 50_000
	return cfg
}

func TestScaledQ3Frac(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumTransactions = 100000
	if f := cfg.scaledQ3Frac(); f != 0.003 {
		t.Errorf("large scale frac = %v, want paper's 0.003", f)
	}
	cfg.NumTransactions = 100
	if f := cfg.scaledQ3Frac(); f != 0.25 {
		t.Errorf("tiny scale frac = %v, want cap 0.25", f)
	}
	cfg.NumTransactions = 1000
	if f := cfg.scaledQ3Frac(); f != 0.03 {
		t.Errorf("mid scale frac = %v, want 0.03", f)
	}
}

func TestQueriesUseQ3Frac(t *testing.T) {
	cfg := tinyConfig()
	qs := cfg.Queries()
	if len(qs) != 3 {
		t.Fatalf("queries = %d", len(qs))
	}
	if qs[0].Name() != "Q1" || qs[1].Name() != "Q2" || qs[2].Name() != "Q3" {
		t.Error("query order wrong")
	}
}

func TestEncodeUnknownScheme(t *testing.T) {
	cfg := tinyConfig()
	if _, _, err := cfg.Encode(Scheme("nope"), 2); err == nil {
		t.Fatal("want error for unknown scheme")
	}
}

func TestEncodeSuppressScheme(t *testing.T) {
	cfg := tinyConfig()
	enc, _, err := cfg.Encode(SchemeSuppress, 3)
	if err != nil {
		t.Fatal(err)
	}
	if enc.TransItem == nil {
		t.Fatal("suppression encoding should populate TransItem")
	}
}

func TestRunCellAndPrinters(t *testing.T) {
	cfg := tinyConfig()
	var cells []Cell
	for _, scheme := range Schemes {
		cell, err := cfg.RunCell(scheme, cfg.Queries()[0], 2)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if cell.VarsQuery < cell.VarsModel {
			t.Errorf("%s: query processing shrank the store", scheme)
		}
		if cell.VarsPruned > cell.VarsQuery {
			t.Errorf("%s: pruning grew the store", scheme)
		}
		cells = append(cells, cell)
	}
	var buf bytes.Buffer
	PrintFig5(&buf, cells)
	if !strings.Contains(buf.String(), "Figure 5 panel") || !strings.Contains(buf.String(), "L_min") {
		t.Errorf("Fig5 output malformed:\n%s", buf.String())
	}
	buf.Reset()
	PrintFig6(&buf, cells)
	if !strings.Contains(buf.String(), "L-solve") {
		t.Errorf("Fig6 output malformed:\n%s", buf.String())
	}
	buf.Reset()
	PrintFig7(&buf, cells)
	if !strings.Contains(buf.String(), "After pruning") {
		t.Errorf("Fig7 output malformed:\n%s", buf.String())
	}
}

func TestRunCellQualityTags(t *testing.T) {
	cfg := tinyConfig()
	cell, err := cfg.RunCell(SchemeK, cfg.Queries()[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Quality != "exact" {
		t.Errorf("untimed tiny cell quality = %q, want exact", cell.Quality)
	}

	// With a spent deadline the sweep must survive: the cell degrades
	// to proven-interval (best-effort bounds) or failed (no feasible
	// point), and the MC series is still measured either way.
	cfg.SolveDeadline = time.Nanosecond
	cell, err = cfg.RunCell(SchemeBipartite, cfg.Queries()[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Quality != "proven-interval" && cell.Quality != "failed" {
		t.Errorf("deadline cell quality = %q, want proven-interval or failed", cell.Quality)
	}
	if cell.Quality == "exact" {
		t.Error("a 1ns deadline cannot produce an exact cell")
	}
	if cell.MMax < cell.MMin {
		t.Errorf("MC series missing on degraded cell: [%d,%d]", cell.MMin, cell.MMax)
	}

	var buf bytes.Buffer
	PrintFig5(&buf, []Cell{cell})
	if cell.Quality == "failed" && !strings.Contains(buf.String(), "failed") {
		t.Errorf("Fig5 table hides the failed cell:\n%s", buf.String())
	}
}

func TestFig7Tiny(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	cells, err := cfg.Fig7(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("Fig7 cells = %d, want 2 (Q2 and Q3)", len(cells))
	}
	for _, c := range cells {
		if c.Scheme != SchemeK || c.K != 6 {
			t.Errorf("Fig7 cell should be k-anonymity k=6: %+v", c)
		}
		if c.VarsPruned > c.VarsQuery || c.ConsPruned > c.ConsQuery {
			t.Errorf("pruning must not grow: %+v", c)
		}
	}
}

func TestAblationSolverTiny(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	res, err := cfg.AblationSolver(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("variants = %d", len(res))
	}
	// All exact variants must agree on the bounds.
	for _, r := range res[1:] {
		if r.Proven && res[0].Proven && (r.Min != res[0].Min || r.Max != res[0].Max) {
			t.Errorf("variant %s disagrees: [%d,%d] vs [%d,%d]",
				r.Variant, r.Min, r.Max, res[0].Min, res[0].Max)
		}
	}
	// The no-pruning variant must keep at least as much as baseline.
	if res[1].VarsPruned < res[0].VarsPruned {
		t.Errorf("no-pruning kept fewer vars than baseline")
	}
}

func TestAblationMCSamplesTiny(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	res, err := cfg.AblationMCSamples(&buf, []int{3, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("sweeps = %d", len(res))
	}
	for _, r := range res {
		if r.MMin < r.LMin || r.MMax > r.LMax {
			// Only guaranteed when bounds are proven, which they are
			// at this scale.
			t.Errorf("MC [%d,%d] outside exact [%d,%d] at n=%d", r.MMin, r.MMax, r.LMin, r.LMax, r.Samples)
		}
		// More samples can only widen the observed range.
	}
	if res[1].MMax-res[1].MMin < res[0].MMax-res[0].MMin {
		t.Error("larger sample produced a narrower range (same seed prefix expected)")
	}
	_ = time.Millisecond
}
