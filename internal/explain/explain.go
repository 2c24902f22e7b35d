// Package explain turns the solver's raw ExplainRecorder data into
// the licm-explain/1 report — a structured per-query account of the
// solve ("EXPLAIN ANALYZE" for LICM): pruning effect, decomposed
// component list with fingerprints of the exact matrices searched, and
// per-component search attribution. Reports serialize as JSONL and
// feed the workload-level component census (census.go), which measures
// how often the same component recurs across a workload.
package explain

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"licm/internal/solver"
)

// Schema identifies the report format. Consumers (licmtrace census,
// the CI telemetry smoke check) reject records with any other value,
// so schema drift fails loudly instead of producing silent garbage.
const Schema = "licm-explain/1"

// Report is one query's explain record.
type Report struct {
	Schema string `json:"schema"`
	// Query is a caller-chosen label (query name, experiment cell id).
	Query string `json:"query,omitempty"`
	// Scheme/K describe the constraint scheme the store was built
	// under, when the caller knows it (licmq, licmexp).
	Scheme string `json:"scheme,omitempty"`
	K      int    `json:"k,omitempty"`
	// Quality is the overall verdict, the supervisor's outcome tag
	// (super.Quality). Build leaves it empty; the caller that holds the
	// outcome sets it.
	Quality string `json:"quality,omitempty"`
	Prune   Prune  `json:"prune"`
	Runs    []Run  `json:"runs"`
}

// Prune is the pruning/presolve effect, identical across the runs of
// one query (min and max prune the same store).
type Prune struct {
	VarsBefore      int `json:"vars_before"`
	ConsBefore      int `json:"cons_before"`
	VarsAfter       int `json:"vars_after"`
	ConsAfter       int `json:"cons_after"`
	FixedByPresolve int `json:"fixed_by_presolve"`
}

// Run is one solver run (one sense; supervised solves may record
// several runs per sense as the degradation ladder retries).
type Run struct {
	Sense            string      `json:"sense"`
	Quality          string      `json:"quality,omitempty"`
	Nodes            int64       `json:"nodes"`
	LPSolves         int64       `json:"lp_solves"`
	Propagations     int64       `json:"propagations"`
	PruneNs          int64       `json:"prune_ns"`
	PresolveNs       int64       `json:"presolve_ns"`
	SearchNs         int64       `json:"search_ns"`
	WitnessNs        int64       `json:"witness_ns"`
	TotalNs          int64       `json:"total_ns"`
	AllocBytes       int64       `json:"alloc_bytes"`
	PeakHeap         int64       `json:"peak_heap"`
	Canceled         bool        `json:"canceled,omitempty"`
	WitnessExhausted bool        `json:"witness_exhausted,omitempty"`
	Proven           bool        `json:"proven"`
	Err              string      `json:"err,omitempty"`
	Components       []Component `json:"components"`
}

// Component is one decomposed subproblem with its fingerprint and
// search attribution.
type Component struct {
	Index int `json:"index"`
	// Fingerprint names the recorded matrix and objective exactly (see
	// Fingerprint): equal fingerprints are the same component, the
	// recurrence the census counts across queries.
	Fingerprint string `json:"fingerprint"`
	Vars        int    `json:"vars"`
	Cons        int    `json:"cons"`
	Solved      bool   `json:"solved"`
	// Reused marks a component the solve did not search because an
	// earlier component of the same run had an equal matrix, objective
	// and derived flags: it carries that component's outcome and
	// counts, with its own near-zero solve_ns and lp_ns 0.
	Reused       bool  `json:"reused,omitempty"`
	Nodes        int64 `json:"nodes"`
	LPSolves     int64 `json:"lp_solves"`
	Propagations int64 `json:"propagations"`
	SolveNs      int64 `json:"solve_ns"`
	LPNs         int64 `json:"lp_ns"`
	Feasible     bool  `json:"feasible"`
	Proven       bool  `json:"proven"`
}

// Build assembles a Report from a recorder's runs. The recorder may
// be nil or empty (returns an empty, still-valid report), and stays
// untouched; it holds every run solved on it, so use one recorder per
// query. Each run carries the supervisor's tag for its sense
// (ExplainRecorder.TagSense); the report's Quality is the caller's to
// set.
func Build(query string, rec *solver.ExplainRecorder) *Report {
	rep := &Report{Schema: Schema, Query: query}
	runs := rec.Runs()
	if len(runs) == 0 {
		rep.Runs = []Run{}
		return rep
	}
	rep.Prune = Prune{
		VarsBefore:      runs[0].VarsBefore,
		ConsBefore:      runs[0].ConsBefore,
		VarsAfter:       runs[0].VarsAfterPrune,
		ConsAfter:       runs[0].ConsAfterPrune,
		FixedByPresolve: runs[0].FixedByPresolve,
	}
	for _, sr := range runs {
		run := Run{
			Sense:            sr.Sense,
			Quality:          sr.Quality,
			Nodes:            sr.Nodes,
			LPSolves:         sr.LPSolves,
			Propagations:     sr.Propagations,
			PruneNs:          sr.PruneNs,
			PresolveNs:       sr.PresolveNs,
			SearchNs:         sr.SearchNs,
			WitnessNs:        sr.WitnessNs,
			TotalNs:          sr.TotalNs,
			AllocBytes:       sr.AllocBytes,
			PeakHeap:         sr.PeakHeap,
			Canceled:         sr.Canceled,
			WitnessExhausted: sr.WitnessExhausted,
			Proven:           sr.Proven,
			Err:              sr.Err,
			Components:       make([]Component, 0, len(sr.Components)),
		}
		for _, c := range sr.Components {
			run.Components = append(run.Components, Component{
				Index:        c.Index,
				Fingerprint:  Fingerprint(c.Vars, c.Obj, c.Cons),
				Vars:         c.Vars,
				Cons:         len(c.Cons),
				Solved:       c.Solved,
				Reused:       c.Reused,
				Nodes:        c.Nodes,
				LPSolves:     c.LPSolves,
				Propagations: c.Propagations,
				SolveNs:      c.SolveNs,
				LPNs:         c.LPNs,
				Feasible:     c.Feasible,
				Proven:       c.Proven,
			})
		}
		rep.Runs = append(rep.Runs, run)
	}
	return rep
}

// ComponentSummary reports the component count and largest component
// size (in variables) across a recorder's runs — the figures an
// experiment cell carries even when the solve itself degraded or
// failed, since components are registered before any search work.
func ComponentSummary(rec *solver.ExplainRecorder) (count, maxVars int) {
	for _, run := range rec.Runs() {
		if len(run.Components) == 0 {
			continue
		}
		if count == 0 || len(run.Components) > count {
			count = len(run.Components)
		}
		for _, c := range run.Components {
			if c.Vars > maxVars {
				maxVars = c.Vars
			}
		}
	}
	return count, maxVars
}

// Validate checks the structural invariants a well-formed report
// satisfies. It is deliberately strict about the schema tag.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("explain: schema %q, want %q", r.Schema, Schema)
	}
	if r.Runs == nil {
		return fmt.Errorf("explain: missing runs array")
	}
	for i := range r.Runs {
		run := &r.Runs[i]
		if run.Sense != "max" && run.Sense != "min" {
			return fmt.Errorf("explain: run %d: sense %q, want max or min", i, run.Sense)
		}
		for j := range run.Components {
			c := &run.Components[j]
			if len(c.Fingerprint) != 16 {
				return fmt.Errorf("explain: run %d component %d: fingerprint %q, want 16 hex chars", i, j, c.Fingerprint)
			}
			if c.Vars < 0 || c.Cons < 0 {
				return fmt.Errorf("explain: run %d component %d: negative size", i, j)
			}
			if c.SolveNs < 0 || c.LPNs < 0 {
				return fmt.Errorf("explain: run %d component %d: negative duration", i, j)
			}
		}
	}
	return nil
}

// WriteJSONL appends the report as one JSON line.
func WriteJSONL(w io.Writer, rep *Report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadJSONL parses a stream of reports, one JSON object per line
// (blank lines skipped). With strict set, unknown fields and
// Validate failures are errors — the schema-drift guard the CI
// telemetry smoke check relies on.
func ReadJSONL(r io.Reader, strict bool) ([]Report, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 16<<20)
	var out []Report
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rep Report
		dec := json.NewDecoder(bytes.NewReader(raw))
		if strict {
			dec.DisallowUnknownFields()
		}
		if err := dec.Decode(&rep); err != nil {
			return nil, fmt.Errorf("explain: line %d: %w", line, err)
		}
		if strict {
			if err := rep.Validate(); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
		}
		out = append(out, rep)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
