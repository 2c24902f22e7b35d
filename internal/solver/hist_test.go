package solver

import (
	"context"
	"testing"

	"licm/internal/obs"
)

// TestLatencyHistograms: a metrics-attached solve fills the
// solver.lp_ns histogram with exactly one observation per LP relaxation
// and the solver.node_ns histogram with one per flushed node batch.
func TestLatencyHistograms(t *testing.T) {
	p := hardProblem()
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.MaxNodes = 50_000
	opts.Metrics = reg
	res, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	lp := reg.Histogram("solver.lp_ns").Snapshot()
	if lp.Count != res.Stats.LPSolves {
		t.Errorf("solver.lp_ns count = %d, want one per LP solve (%d)", lp.Count, res.Stats.LPSolves)
	}
	if lp.Count > 0 && lp.Sum <= 0 {
		t.Errorf("solver.lp_ns sum = %d with %d observations", lp.Sum, lp.Count)
	}
	node := reg.Histogram("solver.node_ns").Snapshot()
	if res.Stats.Nodes > 0 && node.Count == 0 {
		t.Errorf("solver.node_ns empty after %d nodes", res.Stats.Nodes)
	}
	// One observation per flush batch: never more than one per node, and
	// at least nodes/ctrlGranularity (each component flushes at the
	// granularity plus once at the end).
	if node.Count > res.Stats.Nodes {
		t.Errorf("solver.node_ns count %d exceeds node count %d", node.Count, res.Stats.Nodes)
	}
	if minBatches := res.Stats.Nodes / ctrlGranularity; node.Count < minBatches {
		t.Errorf("solver.node_ns count %d below minimum batch count %d", node.Count, minBatches)
	}
}

// TestLatencyHistogramsOffWithoutMetrics: without a registry the
// latency clocks stay off (timingLatencies is the hot-path gate).
func TestLatencyHistogramsOffWithoutMetrics(t *testing.T) {
	opts := DefaultOptions()
	ctx, cancel := context.WithCancel(context.Background()) // forces a non-nil ctrl
	defer cancel()
	k := newCtrl(ctx, opts)
	if k == nil {
		t.Fatal("ctrl unexpectedly nil")
	}
	if k.timingLatencies() {
		t.Error("timingLatencies() true without a metrics registry")
	}
	var nilCtrl *ctrl
	if nilCtrl.timingLatencies() {
		t.Error("nil ctrl claims to time latencies")
	}
}
