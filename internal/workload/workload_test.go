package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"licm/internal/explain"
	"licm/internal/seedflag"
	"licm/internal/solver"
	"licm/internal/super"
)

// testConfig is a small fixed-seed run: large enough to exercise all
// four query shapes, small enough for the exact reference solver on
// every query.
func testConfig() Config {
	opts := solver.DefaultOptions()
	opts.CompleteWitness = false
	return Config{
		NumTransactions: 120,
		NumItems:        40,
		Scheme:          "k",
		K:               4,
		Seed:            3,
		MCSamples:       20,
		Solver:          opts,
	}
}

func testSpecs(t *testing.T, n int) []Spec {
	t.Helper()
	specs := GenerateSpecs(n, 7, 1000, 40)
	if len(specs) != n {
		t.Fatalf("GenerateSpecs returned %d specs, want %d", len(specs), n)
	}
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			t.Fatalf("generated spec invalid: %v", err)
		}
	}
	return specs
}

// sharedSpecs is the length of the shared run. The spec stream is
// prefix-stable, so its records start with those of every shorter
// testSpecs run.
const sharedSpecs = 8

// shared is the one Execute of testSpecs(t, sharedSpecs) that the tests
// which only read a run share: three of its eight specs are Query-3
// searches that take seconds each, so one run instead of one per test
// is most of the package's test time. Its config attaches an external
// census and an OnRecord hook, which observe the run without changing
// it.
var shared struct {
	once     sync.Once
	done     chan struct{}
	run      *Run
	err      error
	census   *explain.Census
	streamed []string
}

// startShared starts the shared run in the background, once. The heavy
// tests that do not read it call it first and are declared before the
// tests that do, so the run overlaps their own Executes: tests run
// sequentially in declaration order, and the package's wall time is
// the longer of the two lanes instead of their sum.
func startShared() {
	shared.once.Do(func() {
		shared.done = make(chan struct{})
		go func() {
			defer close(shared.done)
			cfg := testConfig()
			shared.census = explain.NewCensus()
			cfg.Census = shared.census
			cfg.OnRecord = func(r *Record) { shared.streamed = append(shared.streamed, r.Name) }
			shared.run, shared.err = Execute(cfg, GenerateSpecs(sharedSpecs, 7, 1000, 40))
		}()
	})
}

// sharedRun waits for the shared run and returns it. Callers must not
// modify it.
func sharedRun(t *testing.T) *Run {
	t.Helper()
	startShared()
	<-shared.done
	if shared.err != nil {
		t.Fatalf("Execute: %v", shared.err)
	}
	return shared.run
}

func TestGenerateSpecsDeterministicAndDiverse(t *testing.T) {
	a := GenerateSpecs(200, 42, 1000, 40)
	b := GenerateSpecs(200, 42, 1000, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different specs")
	}
	c := GenerateSpecs(200, 43, 1000, 40)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical specs")
	}
	kinds := map[string]int{}
	for _, sp := range a {
		kinds[sp.Kind+"/"+sp.Agg]++
	}
	for _, want := range []string{"q1/count", "q1/sum", "q2/count", "q3/count"} {
		if kinds[want] == 0 {
			t.Errorf("200 specs contain no %s queries (got %v)", want, kinds)
		}
	}
}

func TestSpecsRoundTrip(t *testing.T) {
	specs := testSpecs(t, 50)
	var buf bytes.Buffer
	if err := WriteSpecs(&buf, specs); err != nil {
		t.Fatalf("WriteSpecs: %v", err)
	}
	got, err := ReadSpecs(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSpecs: %v", err)
	}
	if !reflect.DeepEqual(specs, got) {
		t.Fatal("specs did not round-trip")
	}
}

func TestReadSpecsRejects(t *testing.T) {
	cases := map[string]string{
		"wrong schema":  `{"schema":"licm-bench/1","id":0,"kind":"q1","agg":"count","pa_lo":0,"pa_hi":1,"pb_lo":0,"pb_hi":1,"pc_lo":0,"pc_hi":0,"x":0,"y":0}`,
		"newer schema":  `{"schema":"licm-queries/9","id":0,"kind":"q1","agg":"count","pa_lo":0,"pa_hi":1,"pb_lo":0,"pb_hi":1,"pc_lo":0,"pc_hi":0,"x":0,"y":0}`,
		"unknown field": `{"schema":"licm-queries/1","id":0,"kind":"q1","agg":"count","pa_lo":0,"pa_hi":1,"pb_lo":0,"pb_hi":1,"pc_lo":0,"pc_hi":0,"x":0,"y":0,"extra":1}`,
		"bad kind":      `{"schema":"licm-queries/1","id":0,"kind":"q9","agg":"count","pa_lo":0,"pa_hi":1,"pb_lo":0,"pb_hi":1,"pc_lo":0,"pc_hi":0,"x":0,"y":0}`,
		"empty window":  `{"schema":"licm-queries/1","id":0,"kind":"q1","agg":"count","pa_lo":5,"pa_hi":1,"pb_lo":0,"pb_hi":1,"pc_lo":0,"pc_hi":0,"x":0,"y":0}`,
		"sum on q2":     `{"schema":"licm-queries/1","id":0,"kind":"q2","agg":"sum","pa_lo":0,"pa_hi":1,"pb_lo":0,"pb_hi":1,"pc_lo":0,"pc_hi":1,"x":1,"y":1}`,
	}
	for name, line := range cases {
		if _, err := ReadSpecs(strings.NewReader(line)); err == nil {
			t.Errorf("%s: ReadSpecs accepted %s", name, line)
		}
	}
}

// stripTimings zeroes every wall-clock figure so two runs of the same
// seeded workload can be compared for determinism.
func stripTimings(run *Run) {
	for i := range run.Records {
		run.Records[i].LatencyNs = 0
	}
	if run.Summary != nil {
		run.Summary.WallNs = 0
		run.Summary.LatencyP50Ns = 0
		run.Summary.LatencyP95Ns = 0
		run.Summary.LatencyP99Ns = 0
	}
}

func TestExecuteDeterministic(t *testing.T) {
	startShared()
	cfg := testConfig()
	specs := testSpecs(t, 5)
	a, err := Execute(cfg, specs)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	b, err := Execute(cfg, specs)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	stripTimings(a)
	stripTimings(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of the same seeded workload differ beyond timings")
	}
}

// TestExecuteRemoteLyingAnswer: a remote claiming exact quality with
// wrong bounds is flagged by the local ground-truth cross-check — the
// gate cannot be fooled.
func TestExecuteRemoteLyingAnswer(t *testing.T) {
	startShared()
	cfg := testConfig()
	cfg.Answer = func(sp Spec) (*Answer, error) {
		return &Answer{Quality: "exact", Lb: 999_999, Ub: 999_999, LatencyNs: 1}, nil
	}
	lying, err := Execute(cfg, testSpecs(t, 3))
	if err != nil {
		t.Fatalf("lying remote Execute: %v", err)
	}
	if lying.Summary.Violations == 0 {
		t.Fatal("lying remote scored no violations")
	}
}

// TestExecuteRemoteSampledAnswer: a remote claiming only sampled
// quality is never held to proven semantics, however wrong its
// estimate.
func TestExecuteRemoteSampledAnswer(t *testing.T) {
	startShared()
	cfg := testConfig()
	cfg.Answer = func(sp Spec) (*Answer, error) {
		return &Answer{Quality: "sampled", Lb: -5, Ub: -1, LatencyNs: 1}, nil
	}
	sampled, err := Execute(cfg, testSpecs(t, 3))
	if err != nil {
		t.Fatalf("sampled remote Execute: %v", err)
	}
	for i := range sampled.Records {
		if sampled.Records[i].Proven {
			t.Errorf("record %s: sampled remote answer marked proven", sampled.Records[i].Name)
		}
	}
	if sampled.Summary.Violations != 0 {
		t.Fatalf("unproven sampled answers scored %d violations", sampled.Summary.Violations)
	}
}

// TestExecuteSeedsFallbackPerSpec: a local run's sampled fallback is
// seeded per spec, as licmd seeds it, so a degraded spec samples the
// same worlds locally and remotely. A 1 ns deadline sends every spec
// to the sampled rung; Monte-Carlo-only ground truth keeps it fast.
func TestExecuteSeedsFallbackPerSpec(t *testing.T) {
	cfg := testConfig()
	cfg.Deadline = time.Nanosecond
	cfg.ExactRefMaxVars = -1
	specs := testSpecs(t, 3)
	run, err := Execute(cfg, specs)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	newEnc, err := cfg.Encoder()
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for i, rec := range run.Records {
		if rec.Quality != "sampled" {
			continue
		}
		sampled++
		sp := specs[i]
		enc := newEnc()
		obj, _, err := sp.Build(enc)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, _ := super.MCFallback(enc, obj,
			seedflag.Derive(cfg.Seed, seedflag.FallbackStream)+int64(sp.ID), cfg.MCSamples)()
		if rec.Lb != lo || rec.Ub != hi {
			t.Errorf("%s: sampled [%d, %d], want the spec-seeded fallback's [%d, %d]", rec.Name, rec.Lb, rec.Ub, lo, hi)
		}
	}
	if sampled == 0 {
		t.Fatal("no spec degraded to the sampled rung")
	}
}

func TestExecuteScoresAndValidates(t *testing.T) {
	specs := testSpecs(t, sharedSpecs)
	run := sharedRun(t)
	if err := run.Validate(); err != nil {
		t.Fatalf("run does not validate: %v", err)
	}
	if len(run.Records) != len(specs) {
		t.Fatalf("got %d records, want %d", len(run.Records), len(specs))
	}
	if run.Summary.Violations != 0 {
		for _, r := range run.Records {
			for _, v := range r.Violations {
				t.Errorf("%s: violation: %s", r.Name, v)
			}
		}
		t.Fatalf("run has %d consistency violations", run.Summary.Violations)
	}
	for _, r := range run.Records {
		// The acceptance criterion: an exactly-solved query checked
		// against exact ground truth must have perfectly tight bounds.
		if r.Quality == "exact" && r.GtSource == "exact" && r.Qerr != 1.0 {
			t.Errorf("%s: exact/exact qerr = %g, want exactly 1.0", r.Name, r.Qerr)
		}
		if r.Proven && r.Qerr < 1 {
			t.Errorf("%s: proven record has qerr %g < 1", r.Name, r.Qerr)
		}
	}
	if run.Summary.ExactRef == 0 {
		t.Error("no query got an exact ground-truth reference at this scale")
	}
	// JSONL round-trip in strict mode.
	var buf bytes.Buffer
	if err := WriteRun(&buf, run); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	got, err := ReadRun(bytes.NewReader(buf.Bytes()), true)
	if err != nil {
		t.Fatalf("ReadRun strict: %v", err)
	}
	if !reflect.DeepEqual(run.Records, got.Records) {
		t.Error("records did not round-trip")
	}
	if !reflect.DeepEqual(run.Summary, got.Summary) {
		t.Error("summary did not round-trip")
	}
}

func TestExecuteFeedsCensus(t *testing.T) {
	specs := testSpecs(t, sharedSpecs)
	run := sharedRun(t)
	cs := shared.census.Summarize(0)
	if cs.Queries != len(specs) {
		t.Errorf("census saw %d queries, want %d", cs.Queries, len(specs))
	}
	// The external census observed exactly what the internal one
	// rolled into the summary.
	if cs.Components != run.Summary.Components {
		t.Errorf("census components %d, summary says %d", cs.Components, run.Summary.Components)
	}
	if cs.Distinct != run.Summary.DistinctFingerprints {
		t.Errorf("census distinct %d, summary says %d", cs.Distinct, run.Summary.DistinctFingerprints)
	}
	if cs.HitRate != run.Summary.CacheHitRate {
		t.Errorf("census hit rate %g, summary says %g", cs.HitRate, run.Summary.CacheHitRate)
	}
	var recComps int
	for _, r := range run.Records {
		recComps += r.Components
	}
	if int64(recComps) != run.Summary.Components {
		t.Errorf("record components sum to %d, summary says %d", recComps, run.Summary.Components)
	}
}

func TestOnRecordStreams(t *testing.T) {
	run := sharedRun(t)
	streamed := shared.streamed
	if len(streamed) != len(run.Records) {
		t.Fatalf("OnRecord fired %d times for %d records", len(streamed), len(run.Records))
	}
	for i, r := range run.Records {
		if streamed[i] != r.Name {
			t.Errorf("OnRecord order: got %s at %d, want %s", streamed[i], i, r.Name)
		}
	}
}

func TestQError(t *testing.T) {
	cases := []struct {
		lb, ub, gtMin, gtMax int64
		want                 float64
	}{
		{10, 20, 10, 20, 1.0},  // perfectly tight
		{0, 0, 0, 0, 1.0},      // zero counts, +1 smoothing
		{5, 41, 10, 20, 2.0},   // ub overshoot dominates: 42/21
		{4, 20, 9, 20, 2.0},    // lb overshoot dominates: 10/5
		{0, 100, 50, 50, 51.0}, // lb collapse to 0 dominates: 51/1
	}
	for _, c := range cases {
		if got := qerror(c.lb, c.ub, c.gtMin, c.gtMax); got != c.want {
			t.Errorf("qerror(%d,%d,%d,%d) = %g, want %g", c.lb, c.ub, c.gtMin, c.gtMax, got, c.want)
		}
	}
}

func TestReadRunRejects(t *testing.T) {
	valid := sharedRun(t)
	var buf bytes.Buffer
	if err := WriteRun(&buf, valid); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	base := buf.String()

	mutations := map[string]func(string) string{
		"wrong schema": func(s string) string {
			return strings.ReplaceAll(s, "licm-load/1", "licm-load/9")
		},
		"no summary": func(s string) string {
			lines := strings.Split(strings.TrimSpace(s), "\n")
			return strings.Join(lines[:len(lines)-1], "\n") + "\n"
		},
		"unknown field strict": func(s string) string {
			return strings.Replace(s, `"type":"query"`, `"type":"query","bogus":1`, 1)
		},
		"qerr below one": func(s string) string {
			return strings.Replace(s, `"qerr":1`, `"qerr":0.5`, 1)
		},
	}
	for name, mutate := range mutations {
		if _, err := ReadRun(strings.NewReader(mutate(base)), true); err == nil {
			t.Errorf("%s: strict ReadRun accepted the mutated stream", name)
		}
	}
	// Lenient mode still parses unknown fields.
	if _, err := ReadRun(strings.NewReader(mutations["unknown field strict"](base)), false); err != nil {
		t.Errorf("lenient ReadRun rejected unknown field: %v", err)
	}
}

func TestDiffRuns(t *testing.T) {
	old := sharedRun(t)
	clone := func() *Run {
		var buf bytes.Buffer
		if err := WriteRun(&buf, old); err != nil {
			t.Fatalf("WriteRun: %v", err)
		}
		run, err := ReadRun(bytes.NewReader(buf.Bytes()), true)
		if err != nil {
			t.Fatalf("ReadRun: %v", err)
		}
		return run
	}

	if d := DiffRuns(old, clone(), DefaultLoadTol()); !d.OK() {
		t.Fatalf("identical runs diff with breaches: %v", d.Breaches)
	}

	t.Run("changed proven bounds", func(t *testing.T) {
		mod := clone()
		for i := range mod.Records {
			if mod.Records[i].Proven {
				mod.Records[i].Ub++
				break
			}
		}
		if d := DiffRuns(old, mod, DefaultLoadTol()); d.OK() {
			t.Error("changed proven bounds not flagged")
		}
	})
	t.Run("missing query", func(t *testing.T) {
		mod := clone()
		mod.Records = mod.Records[1:]
		mod.Summary.Queries--
		mod.Summary.ByQuality[old.Records[0].Quality]--
		if d := DiffRuns(old, mod, DefaultLoadTol()); d.OK() {
			t.Error("missing query not flagged")
		}
	})
	t.Run("new violations", func(t *testing.T) {
		mod := clone()
		mod.Records[0].Violations = append(mod.Records[0].Violations, "synthetic")
		mod.Summary.Violations++
		if d := DiffRuns(old, mod, DefaultLoadTol()); d.OK() {
			t.Error("new violations not flagged")
		}
	})
	t.Run("exact count drop", func(t *testing.T) {
		mod := clone()
		mod.Summary.Exact--
		if d := DiffRuns(old, mod, DefaultLoadTol()); d.OK() {
			t.Error("exact count drop not flagged")
		}
	})
	t.Run("tightness regression", func(t *testing.T) {
		mod := clone()
		mod.Summary.QerrP90 = old.Summary.QerrP90 + 0.5
		if d := DiffRuns(old, mod, DefaultLoadTol()); d.OK() {
			t.Error("qerr p90 regression not flagged")
		}
	})
	t.Run("latency regression", func(t *testing.T) {
		mod := clone()
		mod.Summary.LatencyP95Ns = old.Summary.LatencyP95Ns*10 + 100_000_000
		if d := DiffRuns(old, mod, DefaultLoadTol()); d.OK() {
			t.Error("latency p95 regression not flagged")
		}
	})
	t.Run("parameter mismatch warns", func(t *testing.T) {
		mod := clone()
		mod.Summary.Seed++
		d := DiffRuns(old, mod, DefaultLoadTol())
		if len(d.Warnings) == 0 {
			t.Error("parameter mismatch produced no warning")
		}
	})
	t.Run("zero baseline latency", func(t *testing.T) {
		// A baseline quantile of (near) zero must not turn the factor
		// gate into an unbounded trip wire: the comparison base is
		// clamped to the noise floor, so a new quantile within
		// factor x floor still passes and one beyond it still breaches.
		tol := DefaultLoadTol()
		o := clone()
		o.Summary.LatencyP50Ns = 0
		n := clone()
		n.Summary.LatencyP50Ns = int64(float64(tol.MinLatencyNs)*tol.LatencyFactor) - 1
		if d := DiffRuns(o, n, tol); !d.OK() {
			t.Errorf("zero-baseline p50 within clamped factor breached: %v", d.Breaches)
		}
		n.Summary.LatencyP50Ns = int64(float64(tol.MinLatencyNs)*tol.LatencyFactor) + 1
		if d := DiffRuns(o, n, tol); d.OK() {
			t.Error("zero-baseline p50 beyond clamped factor not flagged")
		}
	})
}

// TestExecuteRemoteAnswer covers the Answer hook behind licmload
// -target: measured answers come from the hook, ground truth and
// scoring stay local, an honest remote scores clean, and a transport
// failure fails the run.
func TestExecuteRemoteAnswer(t *testing.T) {
	cfg := testConfig()
	specs := testSpecs(t, 3)
	local := sharedRun(t)

	// An honest remote echoing the local answers scores clean.
	byID := map[int]*Record{}
	for i := range local.Records {
		byID[local.Records[i].Spec.ID] = &local.Records[i]
	}
	rcfg := cfg
	rcfg.Answer = func(sp Spec) (*Answer, error) {
		a := byID[sp.ID].Answer
		return &a, nil
	}
	remote, err := Execute(rcfg, specs)
	if err != nil {
		t.Fatalf("remote Execute: %v", err)
	}
	if remote.Summary.Violations != 0 {
		t.Fatalf("honest remote scored %d violations", remote.Summary.Violations)
	}
	for i := range remote.Records {
		rr, lr := &remote.Records[i], &local.Records[i]
		if rr.Quality != lr.Quality || rr.Lb != lr.Lb || rr.Ub != lr.Ub || rr.Proven != lr.Proven {
			t.Errorf("record %s: remote (%s [%d,%d] proven=%v) != local (%s [%d,%d] proven=%v)",
				rr.Name, rr.Quality, rr.Lb, rr.Ub, rr.Proven, lr.Quality, lr.Lb, lr.Ub, lr.Proven)
		}
		if err := rr.Validate(); err != nil {
			t.Errorf("record %s: %v", rr.Name, err)
		}
	}

	// A remote transport failure fails the run loudly.
	ecfg := cfg
	ecfg.Answer = func(sp Spec) (*Answer, error) {
		return nil, fmt.Errorf("connection refused")
	}
	if _, err := Execute(ecfg, specs); err == nil {
		t.Fatal("remote answer error did not fail the run")
	}
}

// TestCommittedBaselineRoundTrips reads the committed
// BENCH_workload.json, the baseline of CI's workload and serving diffs,
// with the strict licm-load/1 reader and writes it back: every line
// must come back with the same fields and values (key order aside). A
// renamed, dropped or added record or summary field then fails here,
// not only in CI's diff.
func TestCommittedBaselineRoundTrips(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_workload.json"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := ReadRun(bytes.NewReader(raw), true)
	if err != nil {
		t.Fatalf("strict read of the committed baseline: %v", err)
	}
	if len(run.Records) == 0 {
		t.Fatal("committed baseline holds no records")
	}
	var buf bytes.Buffer
	if err := WriteRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(got) != len(want) {
		t.Fatalf("round trip wrote %d lines, baseline has %d", len(got), len(want))
	}
	for i := range want {
		var w, g map[string]any
		if err := json.Unmarshal([]byte(want[i]), &w); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(got[i]), &g); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("line %d round-trips as\n%s\nwant\n%s", i+1, got[i], want[i])
		}
	}
}
