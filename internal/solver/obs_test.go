package solver

import (
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"licm/internal/expr"
	"licm/internal/obs"
)

// hardProblem returns an instance whose DFS tree is large: one
// knapsack-style component (many equally-attractive variables) plus a
// few small cardinality groups.
func hardProblem() *Problem {
	const big = 40
	var cons []expr.Constraint
	cons = append(cons, expr.NewConstraint(expr.Sum(seqVars(0, big)...), expr.LE, 20))
	obj := expr.Lin{}
	for v := 0; v < big; v++ {
		obj = obj.AddTerm(expr.Var(v), 1)
	}
	n := big
	for g := 0; g < 4; g++ {
		vs := seqVars(n, 5)
		n += 5
		cons = append(cons, expr.NewConstraint(expr.Sum(vs...), expr.GE, 1))
		cons = append(cons, expr.NewConstraint(expr.Sum(vs...), expr.LE, 3))
		for _, v := range vs {
			obj = obj.AddTerm(v, int64(2+g))
		}
	}
	return &Problem{NumVars: n, Constraints: cons, Objective: obj}
}

func seqVars(start, n int) []expr.Var {
	vs := make([]expr.Var, n)
	for i := range vs {
		vs[i] = expr.Var(start + i)
	}
	return vs
}

// TestObsCountersMatchStats is the integration contract of the live
// metrics: after a solve, the registry counters equal Result.Stats.
func TestObsCountersMatchStats(t *testing.T) {
	p := hardProblem()
	reg := obs.NewRegistry()
	sink := &obs.CollectSink{}
	opts := DefaultOptions()
	opts.MaxNodes = 50_000
	opts.Metrics = reg
	opts.Trace = obs.New(sink)
	res, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes == 0 {
		t.Fatal("no nodes explored")
	}
	if got := reg.Counter("solver.nodes").Value(); got != res.Stats.Nodes {
		t.Errorf("counter nodes = %d, stats = %d", got, res.Stats.Nodes)
	}
	if got := reg.Counter("solver.lp_solves").Value(); got != res.Stats.LPSolves {
		t.Errorf("counter lp_solves = %d, stats = %d", got, res.Stats.LPSolves)
	}
	if got := reg.Counter("solver.propagations").Value(); got != res.Stats.Propagations {
		t.Errorf("counter propagations = %d, stats = %d", got, res.Stats.Propagations)
	}
	if res.Stats.Propagations == 0 {
		t.Error("propagation count not populated")
	}
}

// TestTraceSpansCoverPhases checks the trace covers every solver phase
// with properly paired and nested spans, and that phase durations are
// consistent with the reported total.
func TestTraceSpansCoverPhases(t *testing.T) {
	p := hardProblem()
	sink := &obs.CollectSink{}
	opts := DefaultOptions()
	opts.MaxNodes = 20_000
	opts.Trace = obs.New(sink)
	res, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}

	evs := sink.Events()
	starts := map[string]obs.Event{}
	ends := map[string]obs.Event{}
	open := 0
	for _, e := range evs {
		switch e.Kind {
		case obs.KindSpanStart:
			open++
			starts[e.Name] = e
		case obs.KindSpanEnd:
			open--
			ends[e.Name] = e
		}
	}
	if open != 0 {
		t.Errorf("unbalanced span events: %d unclosed", open)
	}
	for _, phase := range []string{"solver.solve", "solver.validate", "solver.prune", "solver.presolve", "solver.decompose", "solver.search"} {
		if _, ok := starts[phase]; !ok {
			t.Errorf("missing span_start for %s", phase)
		}
		if _, ok := ends[phase]; !ok {
			t.Errorf("missing span_end for %s", phase)
		}
	}
	rootID := starts["solver.solve"].Span
	for _, phase := range []string{"solver.validate", "solver.prune", "solver.presolve", "solver.decompose", "solver.search"} {
		if got := starts[phase].Parent; got != rootID {
			t.Errorf("%s parent = %d, want root %d", phase, got, rootID)
		}
	}
	// Child durations sum to no more than the root's.
	var sum int64
	for _, phase := range []string{"solver.validate", "solver.prune", "solver.presolve", "solver.decompose", "solver.search", "solver.witness"} {
		if e, ok := ends[phase]; ok {
			sum += e.DurNs
		}
	}
	if rootDur := ends["solver.solve"].DurNs; sum > rootDur {
		t.Errorf("phase durations sum %dns exceeds root %dns", sum, rootDur)
	}

	// Stats durations mirror the spans.
	st := res.Stats
	if st.TotalTime <= 0 {
		t.Error("TotalTime not populated")
	}
	if got := st.PruneTime + st.PresolveTime + st.SearchTime + st.WitnessTime; got > st.TotalTime {
		t.Errorf("phase durations %v exceed total %v", got, st.TotalTime)
	}
	if st.SearchTime <= 0 {
		t.Error("SearchTime not populated")
	}
}

// TestProgressCallback checks the periodic solver.progress trace
// event fires during a long search, at the fixed node spacing, with
// monotonically non-decreasing totals.
func TestProgressCallback(t *testing.T) {
	p := hardProblem()
	sink := &obs.CollectSink{}
	opts := DefaultOptions()
	opts.UseLP = false // keep the search in node-heavy DFS
	opts.MaxNodes = 300_000
	opts.Trace = obs.New(sink)
	if _, err := Maximize(context.Background(), p, opts); err != nil {
		t.Fatal(err)
	}
	var nodes []int64
	for _, e := range sink.Events() {
		if e.Kind == obs.KindProgress && e.Name == "solver.progress" {
			nodes = append(nodes, e.Attrs["nodes"].(int64))
		}
	}
	if len(nodes) < 2 {
		t.Fatalf("progress fired %d times, want >= 2", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i] < nodes[i-1] {
			t.Errorf("nodes regressed: %d then %d", nodes[i-1], nodes[i])
		}
		if nodes[i]-nodes[i-1] < progressInterval {
			t.Errorf("progress events %d nodes apart, want >= %d", nodes[i]-nodes[i-1], progressInterval)
		}
	}
}

// pollCtx is a context that reports cancellation from its (after+1)-th
// Err poll on, so a test can end a solve after a fixed number of
// ctrl flushes.
type pollCtx struct {
	context.Context // cancelable, so Done is non-nil and the solve polls
	polls, after    int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelReturnsBestEffort checks the cooperative abort path: a
// canceled context stops an otherwise multi-million-node search almost
// immediately and still reports an unproven best-effort result.
func TestCancelReturnsBestEffort(t *testing.T) {
	p := hardProblem()
	opts := DefaultOptions()
	opts.UseLP = false // DFS would run to the 2M oversize budget
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Maximize(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Proven {
		t.Error("canceled solve reported proven")
	}
	if !res.Stats.Canceled {
		t.Error("Stats.Canceled not set")
	}
	if res.Stats.Nodes > 50_000 {
		t.Errorf("cancel was slow: %d nodes explored", res.Stats.Nodes)
	}
	if res.Value > res.Bound {
		t.Errorf("value %d exceeds bound %d", res.Value, res.Bound)
	}
	// The dive should still find the easy incumbent.
	if res.Value <= 0 {
		t.Errorf("no useful best-effort value: %d", res.Value)
	}
}

// TestCancelHonoredAcrossBoundsCall checks both directions of a
// Bounds call observe the cancellation independently.
func TestCancelHonoredAcrossBoundsCall(t *testing.T) {
	p := hardProblem()
	opts := DefaultOptions()
	opts.UseLP = false
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	min, max, err := Bounds(&pollCtx{Context: ctx, after: 3}, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if min.Proven && max.Proven {
		t.Error("both sides proven despite cancellation")
	}
	if min.Value > max.Value {
		t.Errorf("min %d > max %d", min.Value, max.Value)
	}
}

// TestTracingOffIsNoop: a solve without instrumentation produces the
// same result and stats as one with it (modulo durations).
func TestTracingOffIsNoop(t *testing.T) {
	p := hardProblem()
	opts := DefaultOptions()
	opts.MaxNodes = 20_000
	plain, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Trace = obs.New(&obs.CollectSink{})
	opts.Metrics = obs.NewRegistry()
	traced, err := Maximize(context.Background(), hardProblem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Value != traced.Value || plain.Bound != traced.Bound || plain.Proven != traced.Proven {
		t.Errorf("tracing changed the result: %+v vs %+v", plain, traced)
	}
	if plain.Stats.Nodes != traced.Stats.Nodes || plain.Stats.LPSolves != traced.Stats.LPSolves {
		t.Errorf("tracing changed the search: %+v vs %+v", plain.Stats, traced.Stats)
	}
	// The memory probe only arms when instrumentation is attached.
	if plain.Stats.AllocBytes != 0 || plain.Stats.PeakHeap != 0 {
		t.Errorf("uninstrumented solve recorded memory stats: alloc=%d peak=%d",
			plain.Stats.AllocBytes, plain.Stats.PeakHeap)
	}
}

// TestMemProbeRecordsAllocations: an instrumented solve reports
// process-level allocation and peak-heap figures in Stats and mirrors
// them into the registry.
func TestMemProbeRecordsAllocations(t *testing.T) {
	p := hardProblem()
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.MaxNodes = 20_000
	opts.Metrics = reg
	res, err := Maximize(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AllocBytes <= 0 {
		t.Errorf("AllocBytes = %d, want > 0", res.Stats.AllocBytes)
	}
	if res.Stats.PeakHeap <= 0 {
		t.Errorf("PeakHeap = %d, want > 0", res.Stats.PeakHeap)
	}
	if got := reg.Counter("solver.alloc_bytes").Value(); got != res.Stats.AllocBytes {
		t.Errorf("counter alloc_bytes = %d, stats = %d", got, res.Stats.AllocBytes)
	}
	if got := reg.Gauge("solver.peak_heap_bytes").Value(); got != res.Stats.PeakHeap {
		t.Errorf("gauge peak_heap_bytes = %d, stats = %d", got, res.Stats.PeakHeap)
	}
}

// TestMetricsScrapeDuringSolve boots the debug server, runs a live
// solve against its registry, and scrapes /metrics over HTTP while the
// search is flushing counters — the full production telemetry path.
// The exposition must parse as Prometheus text format 0.0.4, validate
// (types, monotone cumulative buckets, _sum/_count consistency), and
// carry the solver instruments alongside the runtime gauges.
func TestMetricsScrapeDuringSolve(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opts := DefaultOptions()
	opts.UseLP = false // node-heavy DFS: plenty of counter flushes to observe
	opts.MaxNodes = 300_000
	opts.Metrics = reg
	done := make(chan error, 1)
	go func() {
		_, err := Maximize(context.Background(), hardProblem(), opts)
		done <- err
	}()

	scrape := func() []obs.PromFamily {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
			t.Fatalf("Content-Type = %q, want %q", ct, obs.PromContentType)
		}
		fams, err := obs.ParseProm(resp.Body)
		if err != nil {
			t.Fatalf("scrape does not parse: %v", err)
		}
		if err := obs.ValidateProm(fams); err != nil {
			t.Fatalf("scrape does not validate: %v", err)
		}
		return fams
	}
	family := func(fams []obs.PromFamily, name string) *obs.PromFamily {
		for i := range fams {
			if fams[i].Name == name {
				return &fams[i]
			}
		}
		return nil
	}

	// Poll until the search's periodic flush makes the node counter
	// visible; every intermediate scrape must already be valid.
	deadline := time.Now().Add(30 * time.Second)
	for {
		fams := scrape()
		f := family(fams, "licm_solver_nodes_total")
		if f != nil && f.Type == "counter" && len(f.Samples) == 1 && f.Samples[0].Value > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("solver.nodes never appeared on /metrics")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Final scrape: every registry instrument plus the runtime gauges.
	fams := scrape()
	for _, name := range []string{"licm_solver_nodes_total", "licm_solver_lp_solves_total", "licm_solver_propagations_total"} {
		f := family(fams, name)
		if f == nil || f.Type != "counter" {
			t.Errorf("missing or mistyped counter %s", name)
		}
	}
	for _, name := range []string{"licm_runtime_heap_bytes", "licm_runtime_goroutines", "licm_solver_peak_heap_bytes"} {
		f := family(fams, name)
		if f == nil || f.Type != "gauge" {
			t.Errorf("missing or mistyped gauge %s", name)
			continue
		}
		if len(f.Samples) != 1 || f.Samples[0].Value <= 0 {
			t.Errorf("%s: want one positive sample, got %+v", name, f.Samples)
		}
	}

	// Histogram exposition is consistent with the registry snapshot.
	snap := reg.Histogram("solver.node_ns").Snapshot()
	if snap.Count == 0 {
		t.Fatal("solver.node_ns recorded nothing")
	}
	f := family(fams, "licm_solver_node_ns")
	if f == nil || f.Type != "histogram" {
		t.Fatal("missing histogram licm_solver_node_ns")
	}
	if s := f.Sample("_count"); s == nil || int64(s.Value) != snap.Count {
		t.Errorf("_count = %v, snapshot count = %d", s, snap.Count)
	}
	if s := f.Sample("_sum"); s == nil || int64(s.Value) != snap.Sum {
		t.Errorf("_sum = %v, snapshot sum = %d", s, snap.Sum)
	}
	var inf *obs.PromSample
	for i := range f.Samples {
		if f.Samples[i].Name == "licm_solver_node_ns_bucket" && f.Samples[i].Label("le") == "+Inf" {
			inf = &f.Samples[i]
		}
	}
	if inf == nil || int64(inf.Value) != snap.Count {
		t.Errorf("+Inf bucket = %v, want %d", inf, snap.Count)
	}

	// The dashboard and time-series endpoints ride on the same mux.
	for _, path := range []string{"/debug/licm", "/debug/licm/timeseries"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}
}
