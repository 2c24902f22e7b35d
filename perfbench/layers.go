package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"licm/internal/obs"
	"licm/internal/solver"
	"licm/internal/tracean"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"rss_mb", "MB"},
	{"exact_share", "fraction"},
	{"qerr_gmean", "ratio"},
	{"answered_share", "fraction"},
}

// perLayer are the metrics of a traced run (--trace 1). Times and
// allocations are per query (setup.* per set-up); counts are totals
// over the timed list. A metric of a layer the workload does not
// drive from the benchmark's side reads 0.
var perLayer = []metricDef{
	{"setup.anonymize_ms", "ms"},
	{"setup.encode_ms", "ms"},
	{"encode.ms", "ms"},
	{"encode.alloc_kb", "kB"},
	{"build.ms", "ms"},
	{"build.alloc_kb", "kB"},
	{"build.vars_added", "count"},
	{"problem.ms", "ms"},
	{"solve.ms", "ms"},
	{"solve.alloc_kb", "kB"},
	{"solver.search_ms", "ms"},
	{"solver.prune_ms", "ms"},
	{"solver.presolve_ms", "ms"},
	{"solver.kept_vars_share", "fraction"},
	{"solver.components", "count"},
	{"search.nodes", "count"},
	{"search.lp_solves", "count"},
	{"search.propagations", "count"},
	{"search.lp_skipped_components", "count"},
	{"search.component_recurrence", "fraction"},
	{"serve.answer_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"gc.cycles_per_query", "count"},
	{"gc.pause_ms_per_query", "ms"},
	{"trace.overhead_share", "fraction"},
}

// layers accumulates the counts a traced run reads from values the
// calls already return.
type layers struct {
	encodeAlloc, buildAlloc, solveAlloc int64
	varsAdded                           int64

	searchNs, pruneNs, presolveNs int64
	varsBefore, varsAfter         int64
	components                    int64
	nodes, lpSolves, props        int64
	lpSkipped                     int64
	recurrence                    float64

	answerNs, queueNs, overheadNs int64
}

// addStats folds in one solver run (one side of a Bounds call).
func (ls *layers) addStats(st solver.Stats) {
	ls.searchNs += st.SearchTime.Nanoseconds()
	ls.pruneNs += st.PruneTime.Nanoseconds()
	ls.presolveNs += st.PresolveTime.Nanoseconds()
	ls.varsBefore += int64(st.VarsBefore)
	ls.varsAfter += int64(st.VarsAfterPrune)
	ls.components += int64(st.Components)
	ls.nodes += st.Nodes
	ls.lpSolves += st.LPSolves
	ls.props += st.Propagations
}

// selfTimes reconstructs the span forest of the recorded events, the
// same way licmtrace summary does, and returns every span's self time
// grouped by span name.
func selfTimes(events []obs.Event) (map[string][]int64, error) {
	var buf bytes.Buffer
	if err := writeTrace(&buf, events); err != nil {
		return nil, err
	}
	t, err := tracean.ReadTrace(&buf)
	if err != nil {
		return nil, err
	}
	out := map[string][]int64{}
	t.Walk(func(s *tracean.Span, _ int) { out[s.Name] = append(out[s.Name], s.SelfNs) })
	return out, nil
}

// writeTrace writes events as licm-trace JSON lines.
func writeTrace(w io.Writer, events []obs.Event) error {
	sink := obs.NewJSONLSink(w)
	for i := range events {
		sink.Emit(&events[i])
	}
	return sink.Err()
}

// saveTrace writes the trace file of a traced run for licmtrace.
func saveTrace(path string, events []obs.Event) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// perQueryMs is the summed self time of the named spans, per query.
func perQueryMs(self map[string][]int64, name string, queries int) float64 {
	var sum int64
	for _, ns := range self[name] {
		sum += ns
	}
	return float64(sum) / 1e6 / float64(queries)
}

// medianMs is the median self time of the named spans.
func medianMs(self map[string][]int64, name string) float64 {
	xs := make([]float64, len(self[name]))
	for i, ns := range self[name] {
		xs[i] = float64(ns) / 1e6
	}
	return median(xs)
}
