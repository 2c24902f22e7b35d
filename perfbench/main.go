// Command perfbench is the repository benchmark. It answers a seeded,
// fixed list of distinct aggregate queries on one of three workloads,
// checks every answer against committed ground truth, and prints one
// JSON line of metrics: end-to-end metrics from an untraced run
// (--trace 0), or a per-layer split from a traced run (--trace 1).
//
// Run it from the repository root through the wrapper, which builds
// it first:
//
//	python3 perfbench/run.py --workload mix-150 --seed 7 --seconds 20 --trace 0
//
// Every answer depends only on the inputs: there is no deadline, the
// solver's node budget bounds the work, so answer quality and every
// count repeat exactly for a seed and only timings carry noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"licm/internal/obs"
	"licm/internal/workload"
)

// plan is how much a run asks: the spec quotas, how the timed list is
// split into rounds, and the percentile sample rule.
type plan struct {
	timed, warm quota
	rounds      int
	setupPerGap int
	minBeyond   int
}

func (b *bench) plan() plan {
	return plan{timed: b.timed, warm: b.warm, rounds: rounds, setupPerGap: b.setupPerGap, minBeyond: minBeyond}
}

// engine answers spec lists in process or over HTTP.
type engine interface {
	answerAll(specs []workload.Spec) []answer
	traced(tr *obs.Tracer, specs []workload.Spec, ls *layers) []answer
	setupSample() (time.Duration, error)
	close() error
}

func newEngine(b *bench) (engine, error) {
	if b.served > 0 {
		return newServed(b.store, b.served)
	}
	return newInproc(b.store)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker gates every answer of a run against ground truth and against
// the same spec's answer in the run's other passes.
type checker struct {
	truths     map[int]*truth
	first      map[int]answer
	violations []string
}

func (c *checker) check(ans []answer) {
	for i := range ans {
		a := &ans[i]
		c.violations = append(c.violations, violations(a, c.truths[a.spec.ID])...)
		if f, ok := c.first[a.spec.ID]; !ok {
			c.first[a.spec.ID] = *a
		} else if f.quality != a.quality || f.lb != a.lb || f.ub != a.ub || f.infeasible != a.infeasible {
			c.violations = append(c.violations, fmt.Sprintf("%s: answer changed between passes: %s [%d, %d] then %s [%d, %d]",
				a.spec.Name(), f.quality, f.lb, f.ub, a.quality, a.lb, a.ub))
		}
	}
}

// chunks splits specs into n nearly equal consecutive rounds.
func chunks(specs []workload.Spec, n int) [][]workload.Spec {
	var out [][]workload.Spec
	for r := 0; r < n; r++ {
		lo, hi := r*len(specs)/n, (r+1)*len(specs)/n
		if hi > lo {
			out = append(out, specs[lo:hi])
		}
	}
	return out
}

// run measures one workload. traceOut, when set, receives the traced
// run's spans as licm-trace JSON lines.
func run(b *bench, pl plan, seed int64, seconds float64, trace bool, traceOut string, log io.Writer) (*result, error) {
	truths, err := loadTruth(b.store)
	if err != nil {
		return nil, err
	}
	warm, timed, err := selectSpecs(b.store.pool(), seed, pl.warm, pl.timed)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(b)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := e.close(); err != nil {
			fmt.Fprintln(log, "perfbench: close:", err)
		}
	}()
	chk := &checker{truths: truths, first: map[int]answer{}}
	chk.check(e.answerAll(warm))

	var res *result
	steal0, start := hostSteal(), time.Now()
	if trace {
		res, err = measureTraced(e, b, pl, timed, chk, traceOut, log)
	} else {
		res, err = measure(e, pl, timed, seconds, chk)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: host steal %v over %v of measurement\n",
		hostSteal()-steal0, time.Since(start).Round(time.Millisecond))
	for _, v := range chk.violations {
		fmt.Fprintln(log, "perfbench: violation:", v)
	}
	res.Correct = len(chk.violations) == 0
	return res, nil
}

// measure is the untraced run: the timed list in rounds, with set-up
// samples (each after a GC) before every round, then more set-up
// samples until the run has measured for the given seconds. rss_mb is
// the median over rounds of each round's peak resident set.
func measure(e engine, pl plan, timed []workload.Spec, seconds float64, chk *checker) (*result, error) {
	start := time.Now()
	var setup []float64
	sample := func() error {
		d, err := e.setupSample()
		setup = append(setup, d.Seconds())
		return err
	}
	var wall, cpu time.Duration
	var ans []answer
	var peaks []float64
	mem := startRSSPeak(5 * time.Millisecond)
	defer mem.close()
	for _, chunk := range chunks(timed, pl.rounds) {
		for i := 0; i < pl.setupPerGap; i++ {
			if err := sample(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		mem.window()
		c0, t0 := cpuTime(), time.Now()
		ans = append(ans, e.answerAll(chunk)...)
		wall += time.Since(t0)
		cpu += cpuTime() - c0
		peaks = append(peaks, float64(mem.window())/(1<<20))
	}
	for len(setup) == 0 || time.Since(start).Seconds() < seconds {
		if err := sample(); err != nil {
			return nil, err
		}
	}
	chk.check(ans)

	q := score(ans, chk.truths)
	answered := q.attempted - q.failed
	lat := latencies(ans)
	p50, err := percentile(lat, 0.50, pl.minBeyond)
	if err != nil {
		return nil, err
	}
	p95, err := percentile(lat, 0.95, pl.minBeyond)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"setup_s":          median(setup),
		"qps":              float64(answered) / wall.Seconds(),
		"latency_p50_ms":   p50,
		"latency_p95_ms":   p95,
		"cpu_ms_per_query": ms(cpu) / float64(max(answered, 1)),
		"rss_mb":           median(peaks),
		"exact_share":      float64(q.exact) / float64(q.attempted),
		"qerr_gmean":       q.qerrGmean,
		"answered_share":   float64(answered) / float64(q.attempted),
	}
	return &result{Attempted: q.attempted, Failed: q.failed, Metrics: metricSet(endToEnd, vals)}, nil
}

// measureTraced is the traced run. Each round answers its specs twice,
// untraced and then traced, so the tracing overhead compares runs made
// at the same time; an in-process workload then answers the list once
// more with the ExplainRecorder for the counts only it gives.
func measureTraced(e engine, b *bench, pl plan, timed []workload.Spec, chk *checker, traceOut string, log io.Writer) (*result, error) {
	sink := &obs.CollectSink{}
	tr := obs.New(sink)
	cfg := b.store.config()
	var ls layers
	var gc gcState
	var plain, traced []answer
	for _, chunk := range chunks(timed, pl.rounds) {
		for i := 0; i < pl.setupPerGap; i++ {
			if _, err := timedSetup(cfg, tr); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		g0 := readGC()
		plain = append(plain, e.answerAll(chunk)...)
		d := readGC().sub(g0)
		gc.cycles += d.cycles
		gc.pauseNs += d.pauseNs
		runtime.GC()
		traced = append(traced, e.traced(tr, chunk, &ls)...)
	}
	chk.check(plain)
	chk.check(traced)
	if x, ok := e.(*inproc); ok {
		chk.check(x.explained(timed, &ls))
	}

	events := sink.Events()
	if traceOut != "" {
		if err := saveTrace(traceOut, events); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "perfbench: wrote %d trace events to %s (licmtrace summary %s)\n", len(events), traceOut, traceOut)
	}
	self, err := selfTimes(events)
	if err != nil {
		return nil, err
	}
	n := float64(len(timed))
	perQ := func(v int64) float64 { return float64(v) / n }
	kept := 0.0
	if ls.varsBefore > 0 {
		kept = float64(ls.varsAfter) / float64(ls.varsBefore)
	}
	untracedMs, tracedMs := mean(latencies(plain)), mean(latencies(traced))
	vals := map[string]float64{
		"setup.anonymize_ms":           medianMs(self, "setup.anonymize"),
		"setup.encode_ms":              medianMs(self, "setup.encode"),
		"encode.ms":                    perQueryMs(self, "encode", len(timed)),
		"encode.alloc_kb":              perQ(ls.encodeAlloc) / 1024,
		"build.ms":                     perQueryMs(self, "build", len(timed)),
		"build.alloc_kb":               perQ(ls.buildAlloc) / 1024,
		"build.vars_added":             float64(ls.varsAdded),
		"problem.ms":                   perQueryMs(self, "problem", len(timed)),
		"solve.ms":                     perQueryMs(self, "solve", len(timed)),
		"solve.alloc_kb":               perQ(ls.solveAlloc) / 1024,
		"solver.search_ms":             perQ(ls.searchNs) / 1e6,
		"solver.prune_ms":              perQ(ls.pruneNs) / 1e6,
		"solver.presolve_ms":           perQ(ls.presolveNs) / 1e6,
		"solver.kept_vars_share":       kept,
		"solver.components":            float64(ls.components),
		"search.nodes":                 float64(ls.nodes),
		"search.lp_solves":             float64(ls.lpSolves),
		"search.propagations":          float64(ls.props),
		"search.lp_skipped_components": float64(ls.lpSkipped),
		"search.component_recurrence":  ls.recurrence,
		"serve.answer_ms":              perQ(ls.answerNs) / 1e6,
		"serve.queue_ms":               perQ(ls.queueNs) / 1e6,
		"serve.overhead_ms":            perQ(ls.overheadNs) / 1e6,
		"gc.cycles_per_query":          perQ(gc.cycles),
		"gc.pause_ms_per_query":        gc.pauseNs / 1e6 / n,
		"trace.overhead_share":         (tracedMs - untracedMs) / untracedMs,
	}
	var layerSum float64
	for _, name := range []string{"query", "encode", "build", "problem", "solve", "serve.request"} {
		layerSum += perQueryMs(self, name, len(timed))
	}
	fmt.Fprintf(log, "perfbench: self times sum to %.3f ms per query; traced mean %.3f ms, untraced mean %.3f ms\n",
		layerSum, tracedMs, untracedMs)
	q := score(traced, chk.truths)
	return &result{Attempted: q.attempted, Failed: q.failed, Metrics: metricSet(perLayer, vals)}, nil
}

// metricSet keeps the defined metrics, in definition order, with their
// units. A value that is not finite (a percentile landing on a failed
// query) is reported as the largest float, beyond every limit.
func metricSet(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("perfbench: no value for metric " + d.name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mix-150, lookup-1k or serve-1k")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed selecting the specs (%d is held out for re-checking claims)", heldOutSeed))
	seconds := fs.Float64("seconds", 10, "least time an untraced run measures; set-up samples fill what the timed list leaves")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory for the traced run's licm-trace JSONL file (empty: none)")
	makeTruthDir := fs.String("make-truth", "", "recompute the ground-truth files into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *makeTruthDir != "" {
		if err := makeTruth(*makeTruthDir, runtime.GOMAXPROCS(0), stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	b, err := findBench(*name)
	if err != nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload mix-150|lookup-1k|serve-1k and --trace 0|1:", err)
		return 2
	}
	traceOut := ""
	if *trace == 1 && *traceDir != "" {
		traceOut = filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", b.name, *seed))
	}
	res, err := run(b, b.plan(), *seed, *seconds, *trace == 1, traceOut, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	printSummary(stderr, b.name, *seed, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printSummary renders the result for a reader on stderr.
func printSummary(w io.Writer, name string, seed int64, res *result) {
	fmt.Fprintf(w, "perfbench: %s seed %d: %d attempted, %d failed, correct=%v\n", name, seed, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
