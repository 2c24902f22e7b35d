package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"licm/internal/obs"
	"licm/internal/workload"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	p95, err := percentile(xs, 0.95, minBeyond)
	if err != nil {
		t.Fatal(err)
	}
	if p95 != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (10 samples beyond)", p95)
	}
	if _, err := percentile(xs[:199], 0.95, minBeyond); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it; want an error")
	}
	if p50, err := percentile(xs[180:], 0.5, minBeyond); err != nil || p50 != 10 {
		t.Errorf("p50 of 20 samples = %v, %v; want 10 with 10 beyond", p50, err)
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Error("percentile of no samples: want an error")
	}
	inf := append(append([]float64(nil), xs...), math.Inf(1))
	if p, _ := percentile(inf[:11], 0.5, 0); math.IsInf(p, 0) {
		t.Error("one failed query must not move the median to +Inf")
	}
}

func TestQerror(t *testing.T) {
	for _, c := range []struct {
		lb, ub, gtMin, gtMax int64
		want                 float64
	}{
		{5, 5, 5, 5, 1},           // exact
		{2, 28, 4, 14, 29.0 / 15}, // upper overshoot dominates
		{0, 10, 9, 10, 10},        // lower overshoot, +1 smoothing at 0
		{3, 4, 2, 6, 1},           // never below 1
	} {
		if got := qerror(c.lb, c.ub, c.gtMin, c.gtMax); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("qerror(%d, %d, %d, %d) = %v, want %v", c.lb, c.ub, c.gtMin, c.gtMax, got, c.want)
		}
	}
}

func (q quota) total() int {
	n := 0
	for _, c := range q {
		n += c
	}
	return n
}

func specID(id int) workload.Spec { return workload.Spec{ID: id, Kind: "q1", Agg: "count"} }

func TestScoreClassifiesFailuresAndGmean(t *testing.T) {
	truths := map[int]*truth{
		1: {Source: "exact", Min: 4, Max: 4},
		2: {Source: "mc", Min: 4, Max: 14},
		3: {Source: "exact", Min: 1, Max: 1},
		4: {Source: "exact", Min: 1, Max: 1},
		5: {Source: "exact", Min: 1, Max: 1},
		6: {Source: "infeasible"},
	}
	ans := []answer{
		{spec: specID(1), quality: "exact", lb: 4, ub: 4},
		{spec: specID(2), quality: "proven-interval", lb: 2, ub: 29},
		{spec: specID(3), quality: "sampled", lb: 1, ub: 1},
		{spec: specID(4), quality: "failed"},
		{spec: specID(5), err: errors.New("serve error internal: boom")},
		{spec: specID(6), quality: "exact", infeasible: true},
	}
	q := score(ans, truths)
	if q.attempted != 6 || q.failed != 3 || q.exact != 2 {
		t.Errorf("attempted/failed/exact = %d/%d/%d, want 6/3/2", q.attempted, q.failed, q.exact)
	}
	// Proven feasible answers: qerr 1 and max(30/15, 5/3) = 2.
	if want := math.Sqrt(2); math.Abs(q.qerrGmean-want) > 1e-12 {
		t.Errorf("qerr gmean = %v, want %v", q.qerrGmean, want)
	}
	lat := latencies([]answer{{quality: "exact", latency: 3 * time.Millisecond}, {quality: "sampled"}})
	if lat[0] != 3 || !math.IsInf(lat[1], 1) {
		t.Errorf("latencies = %v, want [3 +Inf]: a failed query is beyond every limit", lat)
	}
}

func TestViolations(t *testing.T) {
	tr := &truth{Source: "exact", Min: 4, Max: 9, McMin: 5, McMax: 8, Worlds: []int64{5, 6, 7}}
	for _, c := range []struct {
		name string
		a    answer
		want int
	}{
		{"exact match", answer{quality: "exact", lb: 4, ub: 9}, 0},
		{"wider interval", answer{quality: "proven-interval", lb: 2, ub: 12}, 0},
		{"exact but wrong", answer{quality: "exact", lb: 4, ub: 10}, 1},
		{"excludes truth", answer{quality: "proven-interval", lb: 5, ub: 9}, 1},
		{"excludes world", answer{quality: "proven-interval", lb: 4, ub: 6}, 3},
		{"infeasible claim", answer{quality: "exact", infeasible: true}, 1},
		{"failed is unchecked", answer{quality: "sampled", lb: 100, ub: 100}, 0},
	} {
		c.a.spec = specID(1)
		if got := violations(&c.a, tr); len(got) != c.want {
			t.Errorf("%s: %d violations %v, want %d", c.name, len(got), got, c.want)
		}
	}
	if v := violations(&answer{spec: specID(1), quality: "exact", lb: 1, ub: 2}, &truth{Source: "infeasible"}); len(v) != 1 {
		t.Errorf("feasible answer to an infeasible reference: %v, want one violation", v)
	}
}

func TestCheckerCatchesChangedAnswers(t *testing.T) {
	c := &checker{truths: map[int]*truth{1: {Source: "exact", Min: 4, Max: 4, McMin: 4, McMax: 4}}, first: map[int]answer{}}
	c.check([]answer{{spec: specID(1), quality: "exact", lb: 4, ub: 4}})
	c.check([]answer{{spec: specID(1), quality: "exact", lb: 4, ub: 4}})
	if len(c.violations) != 0 {
		t.Fatalf("identical passes: %v", c.violations)
	}
	c.check([]answer{{spec: specID(1), quality: "proven-interval", lb: 3, ub: 4}})
	if len(c.violations) != 1 {
		t.Errorf("answer changed between passes: %v, want one violation", c.violations)
	}
}

// span builds the start and end events of one span.
func span(id, parent int64, name string, dur time.Duration) []obs.Event {
	t0 := time.Unix(0, 0)
	return []obs.Event{
		{Seq: 2 * id, Time: t0, Kind: obs.KindSpanStart, Name: name, Span: id, Parent: parent},
		{Seq: 2*id + 1, Time: t0.Add(dur), Kind: obs.KindSpanEnd, Name: name, Span: id, Parent: parent, DurNs: dur.Nanoseconds()},
	}
}

func TestSelfTimeAccounting(t *testing.T) {
	// Two queries; child events are ordered inside their parent's
	// interval by Seq, which is what the forest reader validates.
	var ev []obs.Event
	for q := int64(0); q < 2; q++ {
		base := 10 * q
		ev = append(ev, obs.Event{Seq: 100*q + 1, Kind: obs.KindSpanStart, Name: "query", Span: base + 1})
		seq := 100*q + 2
		for i, c := range []struct {
			name string
			dur  time.Duration
		}{{"encode", 3 * time.Millisecond}, {"build", time.Millisecond}, {"solve", 10 * time.Millisecond}} {
			id := base + 2 + int64(i)
			ev = append(ev,
				obs.Event{Seq: seq, Kind: obs.KindSpanStart, Name: c.name, Span: id, Parent: base + 1},
				obs.Event{Seq: seq + 1, Kind: obs.KindSpanEnd, Name: c.name, Span: id, Parent: base + 1, DurNs: c.dur.Nanoseconds()})
			seq += 2
		}
		ev = append(ev, obs.Event{Seq: seq, Kind: obs.KindSpanEnd, Name: "query", Span: base + 1, DurNs: (15 * time.Millisecond).Nanoseconds()})
	}
	ev = append(ev, span(50, 0, "setup.encode", 2*time.Millisecond)...)
	ev[0].Schema = obs.SchemaVersion
	self, err := selfTimes(ev)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	var sum float64
	for _, name := range []string{"query", "encode", "build", "solve"} {
		got[name] = perQueryMs(self, name, 2)
		sum += got[name]
	}
	want := map[string]float64{"query": 1, "encode": 3, "build": 1, "solve": 10}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s self = %v ms per query, want %v", name, got[name], w)
		}
	}
	if math.Abs(sum-15) > 1e-9 {
		t.Errorf("self times sum to %v ms per query, want the 15 ms root duration", sum)
	}
	if m := medianMs(self, "setup.encode"); m != 2 {
		t.Errorf("setup.encode median = %v ms, want 2", m)
	}
}

func TestSelectSpecs(t *testing.T) {
	b := benches[0]
	pool := b.store.pool()
	w, tm, err := selectSpecs(pool, 7, b.warm, b.timed)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != b.warm.total() || len(tm) != b.timed.total() {
		t.Fatalf("got %d warm-up and %d timed specs, want %d and %d", len(w), len(tm), b.warm.total(), b.timed.total())
	}
	seen := map[int]bool{}
	got := quota{}
	for _, sp := range append(append([]workload.Spec(nil), w...), tm...) {
		if seen[sp.ID] {
			t.Fatalf("spec %d selected twice", sp.ID)
		}
		seen[sp.ID] = true
	}
	for _, sp := range tm {
		got[shape(sp)]++
	}
	for s, n := range b.timed {
		if got[s] != n {
			t.Errorf("timed %s: %d specs, want %d", s, got[s], n)
		}
	}
	_, again, _ := selectSpecs(pool, 7, b.warm, b.timed)
	_, other, _ := selectSpecs(pool, 8, b.warm, b.timed)
	same := func(a, b []workload.Spec) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(tm, again) {
		t.Error("the same seed selected different specs")
	}
	if same(tm, other) {
		t.Error("seeds 7 and 8 selected the same specs")
	}
	if _, _, err := selectSpecs(pool[:10], 7, b.warm, b.timed); err == nil {
		t.Error("a pool smaller than the quotas: want an error")
	}
}

func TestTruthFilesMatchPools(t *testing.T) {
	for _, st := range []*store{mix150, lookup1k} {
		truths, err := loadTruth(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range benches {
			if b.store == st {
				w, tm, err := selectSpecs(st.pool(), defaultSeed, b.warm, b.timed)
				if err != nil {
					t.Fatal(err)
				}
				for _, sp := range append(w, tm...) {
					if truths[sp.ID] == nil {
						t.Errorf("%s: no ground truth for %s", b.name, sp.Name())
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json
// and the metrics this program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if i >= len(benches) || benches[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json", i, w.Name)
		}
	}
	for _, c := range []struct {
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Errorf("%d metrics in BENCHMARK.json, %d in the code", len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), code %s (%s)", i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestSmoke runs every workload end to end, untraced and traced, on a
// few specs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs solve real queries")
	}
	for _, b := range benches {
		pl := plan{
			timed: quota{"q1/count": 2, "q2/count": 1}, warm: quota{"q1/sum": 1},
			rounds: 2, setupPerGap: 1, minBeyond: 0,
		}
		if b.store == mix150 {
			pl.timed["q3/count"] = 1
		}
		for _, trace := range []bool{false, true} {
			res, err := run(b, pl, defaultSeed, 0, trace, "", io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", b.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != pl.timed.total() {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", b.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", b.name, trace, len(res.Metrics), len(defs))
			}
			if !trace {
				for _, m := range []string{"setup_s", "qps", "latency_p50_ms", "cpu_ms_per_query", "rss_mb", "qerr_gmean"} {
					if v := res.Metrics[m].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", b.name, m, v)
					}
				}
				if v := res.Metrics["answered_share"].Value; v != 1 {
					t.Errorf("%s: answered_share = %v, want 1", b.name, v)
				}
			}
		}
	}
}
