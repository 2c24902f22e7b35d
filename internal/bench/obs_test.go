package bench

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"
	"time"

	"licm/internal/obs"
)

// TestRunCellEmitsTrace: a traced RunCell produces a bench.cell span
// wrapping operator and solver spans, and the cell carries the solve
// trace summary.
func TestRunCellEmitsTrace(t *testing.T) {
	cfg := tinyConfig()
	sink := &obs.CollectSink{}
	cfg.Trace = obs.New(sink)
	q := cfg.Queries()[0]
	cell, err := cfg.RunCell(SchemeK, q, 2)
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]int{}
	for _, e := range sink.Events() {
		if e.Kind == obs.KindSpanEnd {
			seen[e.Name]++
		}
	}
	if seen["bench.cell"] != 1 {
		t.Errorf("bench.cell spans = %d, want 1", seen["bench.cell"])
	}
	// Two solves (max + min) wrapped in one super.solve, plus the MC
	// baseline and at least one query operator.
	if seen["solver.solve"] != 2 {
		t.Errorf("solver.solve spans = %d, want 2", seen["solver.solve"])
	}
	if seen["super.solve"] != 1 {
		t.Errorf("super.solve spans = %d, want 1", seen["super.solve"])
	}
	if seen["mc.run"] != 1 {
		t.Errorf("mc.run spans = %d, want 1", seen["mc.run"])
	}
	ops := 0
	for name, n := range seen {
		if len(name) > 3 && name[:3] == "op." {
			ops += n
		}
	}
	if ops == 0 {
		t.Error("no operator spans in the cell trace")
	}

	// The summary fields mirror the solve.
	if cell.Nodes == 0 && cell.Propagations == 0 {
		t.Error("cell carries no solve work summary")
	}
	if cell.Components == 0 {
		t.Error("cell.Components not populated")
	}
	if cell.SearchTime <= 0 {
		t.Error("cell.SearchTime not populated")
	}
	if cell.PruneRatio < 0 || cell.PruneRatio > 1 {
		t.Errorf("prune ratio %v out of [0,1]", cell.PruneRatio)
	}
	if cell.MCAcceptance <= 0 || cell.MCAcceptance > 1 {
		t.Errorf("mc acceptance %v out of (0,1]", cell.MCAcceptance)
	}
}

// TestDegradedCellLogsOnce: a cell that degrades below exact logs
// one warn-level record — the supervisor's — and that record names
// the cell's scheme, query and k.
func TestDegradedCellLogsOnce(t *testing.T) {
	cfg := tinyConfig()
	cfg.SolveDeadline = time.Nanosecond
	var buf bytes.Buffer
	cfg.Log = slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	cell, err := cfg.RunCell(SchemeK, cfg.Queries()[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Quality == "exact" {
		t.Fatal("a 1ns deadline cannot produce an exact cell")
	}
	var warns []map[string]any
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["level"] == "WARN" {
			warns = append(warns, rec)
		}
	}
	if len(warns) != 1 {
		t.Fatalf("got %d WARN records, want 1:\n%s", len(warns), buf.String())
	}
	w := warns[0]
	if w["msg"] != "supervised solve degraded" {
		t.Errorf("WARN record %q is not the supervisor's", w["msg"])
	}
	if w["scheme"] != string(SchemeK) || w["query"] != "Q1" || w["k"] != float64(2) {
		t.Errorf("WARN record does not name the cell (scheme %v, query %v, k %v): %v",
			w["scheme"], w["query"], w["k"], w)
	}
	if w["quality"] != cell.Quality {
		t.Errorf("WARN record quality %v, cell quality %q", w["quality"], cell.Quality)
	}
}

// TestWriteCellsJSON: the emitted JSON is valid, one object per cell,
// with the trace summary fields present in ns units.
func TestWriteCellsJSON(t *testing.T) {
	cells := []Cell{
		{
			Scheme: SchemeK, Query: "Q1", K: 2,
			LMin: 1, LMax: 9, MMin: 3, MMax: 5,
			LSolve: 250 * time.Millisecond,
			Nodes:  1234, LPSolves: 7, Propagations: 999, Components: 3,
			SearchTime: 200 * time.Millisecond,
			PruneRatio: 0.75, MCAcceptance: 1,
		},
		{Scheme: SchemeBipartite, Query: "Q3", K: 4},
	}
	var buf bytes.Buffer
	if err := WriteCellsJSON(&buf, cells); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d cells, want 2", len(decoded))
	}
	first := decoded[0]
	checks := map[string]float64{
		"l_min":          1,
		"l_max":          9,
		"nodes":          1234,
		"lp_solves":      7,
		"propagations":   999,
		"components":     3,
		"l_solve_ns":     250e6,
		"search_time_ns": 200e6,
		"prune_ratio":    0.75,
		"mc_acceptance":  1,
	}
	for key, want := range checks {
		got, ok := first[key].(float64)
		if !ok || got != want {
			t.Errorf("cell[0].%s = %v, want %v", key, first[key], want)
		}
	}
	if s, _ := first["scheme"].(string); s != string(SchemeK) {
		t.Errorf("scheme = %v", first["scheme"])
	}
}
