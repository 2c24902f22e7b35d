package workload

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"time"

	"licm/internal/anon"
	"licm/internal/core"
	"licm/internal/dataset"
	"licm/internal/encode"
	"licm/internal/explain"
	"licm/internal/expr"
	"licm/internal/hierarchy"
	"licm/internal/mc"
	"licm/internal/obs"
	"licm/internal/seedflag"
	"licm/internal/solver"
	"licm/internal/super"
)

// DefaultExactRefMaxVars is the post-query store size up to which the
// runner attempts an exact, budget-free reference solve for ground
// truth. Above it the reference would dominate the run's wall clock,
// so the sampled range takes over as ground truth.
const DefaultExactRefMaxVars = 4000

// worldChecks is the number of uniformly sampled worlds whose answers
// (computed by the deterministic engine, independent of the solver)
// are asserted to lie inside each query's proven bounds.
const worldChecks = 3

// Config controls one workload run.
type Config struct {
	// Dataset scale and anonymization, mirroring the licmq flags:
	// Scheme is "km", "k", "bipartite" or "suppress"; K is the
	// anonymity parameter (or the support threshold for suppress), M
	// the subset size of k^m-anonymity.
	NumTransactions int
	NumItems        int
	HierarchyFanout int
	Scheme          string
	K               int
	M               int
	// Seed is the master seed (see internal/seedflag): the dataset,
	// the ground-truth sampler, and the supervisor's fallback all
	// derive their streams from it.
	Seed int64
	// Deadline caps each local answer (fork, query build and
	// supervised solve, as licmd's request deadline does); 0 means
	// none.
	Deadline time.Duration
	// MCSamples sizes the ground-truth estimate, the containment
	// cross-check and the degraded-mode fallback.
	MCSamples int
	// ExactRefMaxVars overrides DefaultExactRefMaxVars; negative
	// disables exact references entirely (ground truth is always MC).
	ExactRefMaxVars int
	// Solver holds the base options of the measured solve; Solve sets
	// its Trace and Explain per answer.
	Solver solver.Options

	Trace   *obs.Tracer
	Metrics *obs.Registry
	Log     *slog.Logger
	Label   string
	// Census, if non-nil, additionally receives every query's explain
	// report, attributing tightness and solve cost to component
	// fingerprints across the run.
	Census *explain.Census
	// OnRecord, if non-nil, is called with each record as it
	// completes — the streaming hook licmload uses to emit JSONL
	// before the run finishes.
	OnRecord func(*Record)
	// Answer, if non-nil, replaces the local supervised solve as the
	// measured answer source — the licmd client behind licmload
	// -target. Ground truth, containment checks and tightness scoring
	// still run locally against a fork of the same store, so the run
	// gates a remote server's answers with the same rigor as
	// in-process solves. The dataset parameters above must match the
	// server's store for the scoring to be sound.
	Answer func(Spec) (*Answer, error)
}

// Normalized fills the config's zero values with defaults. Execute
// applies it automatically; external store hosts (cmd/licmd) call it
// so their serving parameters match what a local run would use.
func (cfg Config) Normalized() Config {
	if cfg.NumTransactions == 0 {
		cfg.NumTransactions = 300
	}
	if cfg.NumItems == 0 {
		cfg.NumItems = 60
	}
	if cfg.HierarchyFanout == 0 {
		cfg.HierarchyFanout = 8
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "k"
	}
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.M == 0 {
		cfg.M = 2
	}
	if cfg.MCSamples == 0 {
		cfg.MCSamples = 30
	}
	if cfg.ExactRefMaxVars == 0 {
		cfg.ExactRefMaxVars = DefaultExactRefMaxVars
	}
	return cfg
}

// Encoder generates the dataset, anonymizes and encodes it once
// (Anonymize), returning a factory whose every call forks that base
// (encode.Encoded.Fork). Queries grow the store they run against
// (BuildLICM adds auxiliary variables and constraints); each grows its
// own fork, which reads the base in place and leaves it untouched, so
// the L-model is built once per store and each query pays only for
// what it adds. The factory is safe for concurrent use: the base is
// frozen once built, which is how the licmd worker pool answers many
// queries against one loaded store at once.
func (cfg Config) Encoder() (func() *encode.Encoded, error) {
	cfg = cfg.Normalized()
	dcfg := dataset.DefaultConfig(cfg.NumTransactions)
	dcfg.NumItems = cfg.NumItems
	dcfg.Seed = seedflag.Derive(cfg.Seed, seedflag.DatasetStream)
	d, err := dataset.Generate(dcfg)
	if err != nil {
		return nil, err
	}
	base, err := Anonymize(d, cfg.Scheme, cfg.K, cfg.M, cfg.HierarchyFanout)
	if err != nil {
		return nil, err
	}
	return base.Fork, nil
}

// Anonymize anonymizes d under scheme and encodes the result as an
// LICM store. Scheme is "km" (k^m-anonymity with subset size m) or "k"
// (k-anonymity), both generalizing over a fanout-ary item hierarchy;
// "bipartite" ((k, k) safe grouping); or "suppress", where k is the
// support threshold below which items are suppressed.
func Anonymize(d *dataset.Dataset, scheme string, k, m, fanout int) (*encode.Encoded, error) {
	switch scheme {
	case "km", "k":
		h, err := hierarchy.Build(len(d.Items), fanout, nil)
		if err != nil {
			return nil, err
		}
		var g *anon.Generalized
		if scheme == "km" {
			g, err = anon.KmAnonymize(d, h, k, m)
		} else {
			g, err = anon.KAnonymize(d, h, k)
		}
		if err != nil {
			return nil, err
		}
		return encode.Generalized(g, d.Items), nil
	case "bipartite":
		bg, err := anon.BipartiteAnonymize(d, k, k)
		if err != nil {
			return nil, err
		}
		return encode.Bipartite(d, bg), nil
	case "suppress":
		s, err := anon.SuppressAnonymize(d, k)
		if err != nil {
			return nil, err
		}
		return encode.Suppressed(s, d.Items), nil
	default:
		return nil, fmt.Errorf("workload: unknown scheme %q", scheme)
	}
}

// Execute runs every spec through the supervised solver and scores
// it, returning the complete licm-load/1 run. Everything except wall
// latency is deterministic in (cfg, specs).
func Execute(cfg Config, specs []Spec) (*Run, error) {
	cfg = cfg.Normalized()
	start := time.Now()
	newEnc, err := cfg.Encoder()
	if err != nil {
		return nil, err
	}
	census := explain.NewCensus()
	run := &Run{}
	for i := range specs {
		rec, err := cfg.runOne(newEnc, specs[i], census)
		if err != nil {
			return nil, err
		}
		run.Records = append(run.Records, *rec)
		if cfg.OnRecord != nil {
			cfg.OnRecord(rec)
		}
	}
	run.Summary = cfg.summarize(run.Records, census, time.Since(start))
	return run, nil
}

// runOne answers one spec end to end: measured answer (local
// supervised solve or the configured remote source), independent
// ground truth, consistency checks, tightness score.
func (cfg Config) runOne(newEnc func() *encode.Encoded, sp Spec, census *explain.Census) (*Record, error) {
	rec := &Record{Schema: Schema, Type: "query", Name: sp.Name(), Spec: sp}
	tsp := cfg.Trace.Start("workload.query", obs.Str("name", rec.Name))

	var err error
	if cfg.Answer != nil {
		err = cfg.remoteAnswer(sp, rec)
	} else {
		err = cfg.localAnswer(newEnc, sp, rec, census)
	}
	if err != nil {
		return nil, err
	}

	if rec.Infeasible {
		rec.GtSource = "none"
	} else {
		cfg.groundTruth(newEnc, sp, rec)
	}
	cfg.recordMetrics(rec)
	tsp.End(
		obs.Str("quality", rec.Quality),
		obs.I64("lb", rec.Lb), obs.I64("ub", rec.Ub),
		obs.Str("gt_source", rec.GtSource),
		obs.F64("qerr", rec.Qerr),
		obs.Int("violations", len(rec.Violations)))
	return rec, nil
}

// remoteAnswer takes rec's answer from the configured remote answer
// source. Proven-ness is recomputed from the quality tag so the local
// containment checks never trust a remote claim the ladder semantics
// would not grant.
func (cfg Config) remoteAnswer(sp Spec, rec *Record) error {
	a, err := cfg.Answer(sp)
	if err != nil {
		return fmt.Errorf("workload: %s: %w", rec.Name, err)
	}
	rec.Answer = *a
	rec.Proven = provenQuality(a.Quality)
	return nil
}

// localAnswer answers sp with Solve under the per-query deadline and
// feeds the solve's report to the run's census (and the caller's, when
// attached) so tightness can be attributed to component shapes across
// the workload.
func (cfg Config) localAnswer(newEnc func() *encode.Encoded, sp Spec, rec *Record, census *explain.Census) error {
	ctx := context.Background()
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
	}
	a, _, rep, err := cfg.Solve(ctx, newEnc, sp, cfg.Trace, 0)
	if err != nil {
		return fmt.Errorf("workload: %s: %w", rec.Name, err)
	}
	rec.Answer = a
	census.Observe(rep)
	if cfg.Census != nil {
		cfg.Census.Observe(rep)
	}
	return nil
}

// Solve is the one producer of a measured answer, shared by licmload's
// local path and licmd's workers. It forks the store (newEnc), builds
// sp on the fork and runs the supervised solve under ctx, with the
// spec's sampled fallback (Fallback) at the bottom of the ladder. tr
// traces the build and the solve; retrySeed perturbs the supervisor's
// retry after a recovered panic (0 keeps its default). LatencyNs runs
// from the fork to the supervised answer. The report is the solve's
// licm-explain/1 record, tagged with the store's scheme and k and the
// answer's quality. The error is the spec's build error; a solve that
// produced nothing usable is an answer of quality "failed", whose
// reasons the Outcome's sides carry.
func (cfg Config) Solve(ctx context.Context, newEnc func() *encode.Encoded, sp Spec, tr *obs.Tracer, retrySeed int64) (Answer, super.Outcome, *explain.Report, error) {
	start := time.Now()
	enc := newEnc()
	enc.DB.SetTracer(tr)
	obj, _, err := sp.Build(enc)
	if err != nil {
		return Answer{}, super.Outcome{}, nil, err
	}
	a := Answer{Vars: enc.DB.NumVars(), Cons: enc.DB.NumConstraints()}

	opts := cfg.Solver
	opts.Trace = tr
	if opts.Metrics == nil {
		opts.Metrics = cfg.Metrics
	}
	xrec := &solver.ExplainRecorder{}
	opts.Explain = xrec
	out := super.Bounds(ctx, core.BuildProblem(enc.DB, obj), super.Config{
		Solver:    opts,
		Sample:    cfg.Fallback(enc, obj, sp, cfg.MCSamples),
		RetrySeed: retrySeed,
		Log:       cfg.Log,
	})
	a.LatencyNs = int64(time.Since(start))
	a.Quality = out.Quality.String()
	a.Proven = provenQuality(a.Quality)
	a.Infeasible = out.Infeasible
	a.Lb, a.Ub = out.Interval()

	rep := explain.Build(sp.Name(), xrec)
	rep.Scheme = cfg.Scheme
	rep.K = cfg.K
	rep.Quality = a.Quality
	fps := map[string]bool{}
	for ri := range rep.Runs {
		a.Components += len(rep.Runs[ri].Components)
		for ci := range rep.Runs[ri].Components {
			fps[rep.Runs[ri].Components[ci].Fingerprint] = true
		}
	}
	a.DistinctFingerprints = len(fps)
	return a, out, rep, nil
}

// Fallback is sp's sampled-rung estimate on enc: the range of obj over
// n Monte-Carlo worlds, seeded per spec from the master seed's fallback
// stream, so a degraded or shed spec samples the same worlds locally
// and on any licmd serving the same store.
func (cfg Config) Fallback(enc *encode.Encoded, obj expr.Lin, sp Spec, n int) func() (lo, hi int64, ok bool) {
	return super.MCFallback(enc, obj, seedflag.Derive(cfg.Seed, seedflag.FallbackStream)+int64(sp.ID), n)
}

// groundTruth establishes the reference answer range on a second fork
// of the base store (the measured query grew its own fork, which the
// reference must not build on), cross-checks containment, and scores
// tightness.
func (cfg Config) groundTruth(newEnc func() *encode.Encoded, sp Spec, rec *Record) {
	encRef := newEnc()
	objRef, evalRef, err := sp.Build(encRef)
	if err != nil {
		// Build succeeded on the measured encoding, so this cannot
		// differ; record it as a violation rather than crash the run.
		rec.GtSource = "none"
		rec.Violations = append(rec.Violations,
			fmt.Sprintf("reference build failed: %v", err))
		return
	}

	// Exact reference on small stores: the same solver, but with no
	// deadline, no cancellation and no recorder — if it proves both
	// optima, ground truth is the true answer range.
	rec.GtSource = "mc"
	if cfg.ExactRefMaxVars > 0 && encRef.DB.NumVars() <= cfg.ExactRefMaxVars {
		refOpts := cfg.Solver
		refOpts.Explain = nil
		refOpts.Trace = nil
		refOpts.Metrics = nil
		if res, err := core.Bounds(encRef.DB, objRef, refOpts); err == nil && res.MinProven && res.MaxProven {
			rec.GtSource = "exact"
			rec.GtMin, rec.GtMax = res.MinBound, res.MaxBound
		}
	}

	// Sampled range: always computed (a) as ground truth when the
	// exact reference was unavailable, (b) as the Flesca-style
	// consistency cross-check otherwise. The per-spec offset keeps
	// query streams decorrelated while staying derived from -seed.
	sampler := mc.NewSampler(encRef,
		seedflag.Derive(cfg.Seed, seedflag.MCStream)+int64(sp.ID))
	est := sampler.EstimateObjective(objRef, cfg.MCSamples)
	rec.McMin, rec.McMax = est.Min, est.Max
	if rec.GtSource == "mc" {
		rec.GtMin, rec.GtMax = est.Min, est.Max
	}

	if !rec.Proven {
		return
	}
	// Proven bounds must contain ground truth: the exact range
	// entirely, and every sampled observation (the MC range is a
	// subset of the true range by construction).
	if rec.GtMin < rec.Lb || rec.GtMax > rec.Ub {
		rec.Violations = append(rec.Violations, fmt.Sprintf(
			"proven bounds [%d, %d] exclude %s ground truth [%d, %d]",
			rec.Lb, rec.Ub, rec.GtSource, rec.GtMin, rec.GtMax))
	}
	if rec.McMin < rec.Lb || rec.McMax > rec.Ub {
		rec.Violations = append(rec.Violations, fmt.Sprintf(
			"proven bounds [%d, %d] exclude sampled range [%d, %d]",
			rec.Lb, rec.Ub, rec.McMin, rec.McMax))
	}
	// Independent spot check: answers of uniformly sampled worlds,
	// computed by the deterministic engine with no solver involved.
	for i := 0; i < worldChecks; i++ {
		if v := evalRef(sampler.SampleWorld()); v < rec.Lb || v > rec.Ub {
			rec.Violations = append(rec.Violations, fmt.Sprintf(
				"sampled world answer %d outside proven bounds [%d, %d]",
				v, rec.Lb, rec.Ub))
		}
	}
	if rec.Quality == "exact" && rec.GtSource == "exact" &&
		(rec.Lb != rec.GtMin || rec.Ub != rec.GtMax) {
		rec.Violations = append(rec.Violations, fmt.Sprintf(
			"exact solve [%d, %d] disagrees with exact reference [%d, %d]",
			rec.Lb, rec.Ub, rec.GtMin, rec.GtMax))
	}
	rec.Qerr = qerror(rec.Lb, rec.Ub, rec.GtMin, rec.GtMax)
}

// qerror is the bound-tightness score: how far the proven interval
// overshoots ground truth on either end, as a ratio >= 1. The +1
// smoothing keeps zero-valued counts meaningful (classic q-error is
// undefined at 0); aggregates here are non-negative.
func qerror(lb, ub, gtMin, gtMax int64) float64 {
	q := ratio(ub+1, gtMax+1)
	if r := ratio(gtMin+1, lb+1); r > q {
		q = r
	}
	if q < 1 {
		q = 1
	}
	return q
}

// ratio divides with denominators clamped to >= 1.
func ratio(num, den int64) float64 {
	if den < 1 {
		den = 1
	}
	return float64(num) / float64(den)
}

// recordMetrics publishes one record to the live registry (no-op
// without Metrics): licm_workload_* in the Prometheus exposition.
func (cfg Config) recordMetrics(rec *Record) {
	reg := cfg.Metrics
	if reg == nil {
		return
	}
	reg.Counter("workload.queries").Inc()
	switch rec.Quality {
	case "exact":
		reg.Counter("workload.exact").Inc()
	case "proven-interval":
		reg.Counter("workload.proven_interval").Inc()
	case "sampled":
		reg.Counter("workload.sampled").Inc()
	default:
		reg.Counter("workload.failed").Inc()
	}
	reg.Histogram("workload.latency_ns").Observe(rec.LatencyNs)
	if rec.Qerr > 0 {
		reg.Gauge("workload.qerr_ppm").Set(int64(rec.Qerr * 1e6))
	}
	if n := len(rec.Violations); n > 0 {
		reg.Counter("workload.violations").Add(int64(n))
	}
}

// summarize rolls the records up into the run's summary line.
func (cfg Config) summarize(recs []Record, census *explain.Census, wall time.Duration) *Summary {
	s := &Summary{
		Schema:     Schema,
		Type:       "summary",
		Label:      cfg.Label,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Trans:      cfg.NumTransactions,
		Items:      cfg.NumItems,
		Scheme:     cfg.Scheme,
		K:          cfg.K,
		Seed:       cfg.Seed,
		Queries:    len(recs),
		DeadlineNs: int64(cfg.Deadline),
		MCSamples:  cfg.MCSamples,
		WallNs:     int64(wall),
		ByQuality:  map[string]int{},
	}
	if cfg.Scheme == "km" {
		s.M = cfg.M
	}
	var lats []int64
	var qerrs []float64
	for i := range recs {
		r := &recs[i]
		s.ByQuality[r.Quality]++
		lats = append(lats, r.LatencyNs)
		if r.Proven {
			s.Proven++
		}
		if r.Quality == "exact" {
			s.Exact++
		}
		if r.GtSource == "exact" {
			s.ExactRef++
		}
		s.Violations += len(r.Violations)
		if r.Qerr > 0 {
			qerrs = append(qerrs, r.Qerr)
			if r.Qerr > s.QerrMax {
				s.QerrMax = r.Qerr
			}
		}
	}
	s.LatencyP50Ns = quantileI64(lats, 0.50)
	s.LatencyP95Ns = quantileI64(lats, 0.95)
	s.LatencyP99Ns = quantileI64(lats, 0.99)
	s.QerrP50 = quantileF64(qerrs, 0.50)
	s.QerrP90 = quantileF64(qerrs, 0.90)
	cs := census.Summarize(0)
	s.Components = cs.Components
	s.DistinctFingerprints = cs.Distinct
	s.CacheHitRate = cs.HitRate
	return s
}
