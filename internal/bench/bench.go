// Package bench regenerates the paper's evaluation (Section V): the
// LICM-vs-Monte-Carlo bound comparison of Figure 5, the timing split
// of Figure 6 (L-model / L-query / L-solve vs MC), and the pruning
// effectiveness tables of Figure 7, plus ablations of the design
// choices called out in DESIGN.md.
//
// The substrate is the synthetic BMS-POS-shaped dataset
// (internal/dataset); scale is configurable and defaults to a
// laptop-sized reduction of the paper's 515K transactions. Absolute
// numbers therefore differ from the paper; the comparisons reproduce
// the paper's *shape*: exact LICM bounds strictly containing the MC
// range, bounds widening with the anonymity parameter k, LICM faster
// than MC on generalization-based schemes, bipartite Query 3 as the
// hard case, and pruning removing the bulk of variables/constraints.
package bench

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"licm/internal/anon"
	"licm/internal/cert"
	"licm/internal/core"
	"licm/internal/dataset"
	"licm/internal/encode"
	"licm/internal/explain"
	"licm/internal/hierarchy"
	"licm/internal/mc"
	"licm/internal/obs"
	"licm/internal/queries"
	"licm/internal/seedflag"
	"licm/internal/solver"
	"licm/internal/super"
)

// Scheme names an anonymization method.
type Scheme string

// The anonymization schemes of the evaluation.
const (
	SchemeKm        Scheme = "km-anonymity"
	SchemeK         Scheme = "k-anonymity"
	SchemeBipartite Scheme = "bipartite"
	SchemeSuppress  Scheme = "suppression"
)

// Schemes lists the three schemes of Figures 5 and 6, in paper order.
var Schemes = []Scheme{SchemeKm, SchemeK, SchemeBipartite}

// Config controls an experiment run.
type Config struct {
	// Dataset scale (the paper uses 515K transactions over 1657
	// items; defaults reduce this for laptop runtime).
	NumTransactions int
	NumItems        int
	HierarchyFanout int
	Seed            int64
	// Ks are the anonymity parameters swept in Figure 5.
	Ks []int
	// M is the subset size of k^m-anonymity (paper: m=2).
	M int
	// MCSamples is the number of Monte-Carlo worlds (paper: 20).
	MCSamples int
	// Q3X is the popularity threshold of Query 3, scaled to the
	// dataset (the paper uses 80 at 515K transactions).
	Q3X int
	// Q3Frac is the selectivity of Query 3's two location predicates
	// (the paper uses 0.003 at 515K transactions; reduced scales need
	// a wider window so the threshold is reachable).
	Q3Frac float64
	// Solver options; MaxNodes bounds the hard bipartite instances.
	Solver solver.Options
	// SolveDeadline, when positive, caps the wall-clock time of each
	// cell's solve (on top of MaxNodes). Cells answer through the
	// supervisor's degradation ladder (super.Bounds), so a cell that
	// runs out of time degrades instead of aborting the sweep: its
	// Quality drops to "proven-interval" (proven outer bounds only) or
	// "failed" (no proven bound on some side), and the sweep moves on.
	SolveDeadline time.Duration
	// Trace, if non-nil, receives a bench.cell span per RunCell with
	// the full operator/solver/MC trace nested in time between its
	// start and end events. It is attached to each cell's DB and
	// sampler and passed into the supervisor and solver.
	Trace *obs.Tracer
	// Metrics, if non-nil, receives the live solver counters and
	// latency histograms of every cell (it is merged into the solver
	// options and the MC sampler), so a sweep served by -debug-addr is
	// scrapeable at /metrics while it runs.
	Metrics *obs.Registry
	// Log, if non-nil, is the supervisor's logger for every cell
	// (super.Config.Log) with the cell's scheme, query and k attached:
	// a cell whose quality lands below "exact" logs one warn-level
	// record, making degradation visible to log pipelines during long
	// sweeps.
	Log *slog.Logger
	// Explain attaches the full licm-explain/1 report to every cell
	// (Cell.Explain): per-run component matrices, fingerprints and
	// search attribution. Component count and max component size are
	// recorded on every cell regardless (the recorder itself is always
	// attached — its overhead is a few small allocations per solve).
	Explain bool
	// Certify attaches licm-cert/1 optimality certificates to every
	// cell (Cell.Certs) by running solver.Certify over the cell's
	// record after the solve (so LSolve excludes it); feed them to
	// licmverify (licmexp -certify).
	Certify bool
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	opts := solver.DefaultOptions()
	opts.MaxNodes = 300_000
	// The experiments need only bounds, not witness worlds; skip the
	// feasibility pass over pruned components.
	opts.CompleteWitness = false
	cfg := Config{
		NumTransactions: 2000,
		NumItems:        400,
		HierarchyFanout: 8,
		Seed:            1,
		Ks:              []int{2, 4, 6, 8},
		M:               2,
		MCSamples:       20,
		Q3X:             2,
		Solver:          opts,
	}
	cfg.Q3Frac = cfg.scaledQ3Frac()
	return cfg
}

// scaledQ3Frac widens Query 3's 0.3% predicate at reduced scale so
// its Pb window keeps roughly the 30+ transactions needed for item
// popularity to be non-trivial.
func (cfg Config) scaledQ3Frac() float64 {
	frac := 0.003
	if cfg.NumTransactions > 0 {
		if need := 30.0 / float64(cfg.NumTransactions); need > frac {
			frac = need
		}
	}
	if frac > 0.25 {
		frac = 0.25
	}
	return frac
}

// data generates the source dataset and hierarchy for a config.
func (cfg Config) data() (*dataset.Dataset, *hierarchy.Hierarchy, error) {
	dcfg := dataset.DefaultConfig(cfg.NumTransactions)
	dcfg.NumItems = cfg.NumItems
	dcfg.Seed = cfg.Seed
	d, err := dataset.Generate(dcfg)
	if err != nil {
		return nil, nil, err
	}
	h, err := hierarchy.Build(cfg.NumItems, cfg.HierarchyFanout, nil)
	if err != nil {
		return nil, nil, err
	}
	return d, h, nil
}

// Queries builds the three paper queries for the config's domains.
func (cfg Config) Queries() []queries.Query {
	locRange := int64(1000)
	priceRange := int64(40)
	frac := cfg.Q3Frac
	if frac <= 0 {
		frac = cfg.scaledQ3Frac()
	}
	return []queries.Query{
		queries.PaperQ1(locRange, priceRange),
		queries.PaperQ2(locRange, priceRange),
		queries.PaperQ3(locRange, frac, cfg.Q3X),
	}
}

// Encode anonymizes the dataset under the scheme with parameter k and
// encodes it into LICM, returning the encoding and the time spent
// (the L-model bar of Figure 6 — anonymization itself is input
// preparation and excluded, as in the paper).
func (cfg Config) Encode(scheme Scheme, k int) (*encode.Encoded, time.Duration, error) {
	d, h, err := cfg.data()
	if err != nil {
		return nil, 0, err
	}
	switch scheme {
	case SchemeKm:
		g, err := anon.KmAnonymize(d, h, k, cfg.M)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		enc := encode.Generalized(g, d.Items)
		return enc, time.Since(start), nil
	case SchemeK:
		g, err := anon.KAnonymize(d, h, k)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		enc := encode.Generalized(g, d.Items)
		return enc, time.Since(start), nil
	case SchemeBipartite:
		bg, err := anon.BipartiteAnonymize(d, k, k)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		enc := encode.Bipartite(d, bg)
		return enc, time.Since(start), nil
	case SchemeSuppress:
		// k plays the role of the support threshold here.
		s, err := anon.SuppressAnonymize(d, k)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		enc := encode.Suppressed(s, d.Items)
		return enc, time.Since(start), nil
	default:
		return nil, 0, fmt.Errorf("bench: unknown scheme %q", scheme)
	}
}

// Cell is one measured experiment cell: a (scheme, query, k) triple
// with LICM bounds, MC bounds, timings and problem-size statistics.
// Figures 5, 6 and 7 are all views over cells.
type Cell struct {
	Scheme Scheme
	Query  string
	K      int

	// Figure 5 series. LMin/LMax are the proven outer bounds (equal
	// to the exact bounds when the corresponding side is proven);
	// LMinFound/LMaxFound are the best witnessed answers, which
	// differ from the outer bounds only on budget-limited solves.
	LMin, LMax             int64
	LMinFound, LMaxFound   int64
	LMinProven, LMaxProven bool
	MMin, MMax             int64

	// Quality is the supervisor's tag (super.Quality) for the cell's
	// LICM series: "exact" (both sides proven), "proven-interval"
	// (budget or deadline ran out; LMin/LMax are proven outer bounds),
	// or "failed" (some side has no proven bound, e.g. the deadline
	// struck before any feasible point; the LICM series is meaningless
	// and only the MC series is populated). Cells configure no sampled
	// fallback, so "sampled" never occurs.
	Quality string

	// Figure 6 series.
	LModel, LQuery, LSolve time.Duration
	MCTime                 time.Duration

	// Figure 7 series: store sizes at modeling, after query
	// processing, and after pruning.
	VarsModel, ConsModel   int
	VarsQuery, ConsQuery   int
	VarsPruned, ConsPruned int

	// Solve trace summary (from the maximization solve's Stats; zero
	// when that solve did not complete): the same figures a --trace run
	// shows live, recorded per cell so the emitted JSON carries them.
	Nodes        int64
	LPSolves     int64
	Propagations int64
	// Components and MaxCompVars come from the explain recorder, which
	// registers the decomposition before any search work — so they are
	// populated on a degraded cell whose solves started.
	Components   int
	MaxCompVars  int
	PruneTime    time.Duration
	PresolveTime time.Duration
	SearchTime   time.Duration
	// PruneRatio is the fraction of post-query variables removed by
	// reachability pruning (the paper's Figure 7 headline).
	PruneRatio float64
	// MCAcceptance is the MC run's rejection-sampling acceptance rate
	// (1 when the encoding needs no rejection).
	MCAcceptance float64

	// Explain is the cell's licm-explain/1 report (Config.Explain).
	Explain *explain.Report
	// Certs are the cell's licm-cert/1 certificates (Config.Certify),
	// one per solver run.
	Certs []*cert.Certificate
}

// RunCell executes one experiment cell end to end.
func (cfg Config) RunCell(scheme Scheme, q queries.Query, k int) (Cell, error) {
	cell := Cell{Scheme: scheme, Query: q.Name(), K: k}
	sp := cfg.Trace.Start("bench.cell",
		obs.Str("scheme", string(scheme)), obs.Str("query", q.Name()), obs.Int("k", k))
	enc, tModel, err := cfg.Encode(scheme, k)
	if err != nil {
		sp.End(obs.Bool("ok", false))
		return cell, err
	}
	enc.DB.SetTracer(cfg.Trace)
	cell.LModel = tModel
	cell.VarsModel = enc.DB.NumVars()
	cell.ConsModel = enc.DB.NumConstraints()

	start := time.Now()
	rel, err := q.BuildLICM(enc)
	if err != nil {
		sp.End(obs.Bool("ok", false))
		return cell, err
	}
	cell.LQuery = time.Since(start)
	cell.VarsQuery = enc.DB.NumVars()
	cell.ConsQuery = enc.DB.NumConstraints()

	opts := cfg.Solver
	if opts.Metrics == nil {
		opts.Metrics = cfg.Metrics
	}
	opts.Trace = cfg.Trace
	// Always record: the component census (count, max size) must
	// survive cells that degrade below exact, and the recorder's cost
	// is negligible next to the solve.
	rec := &solver.ExplainRecorder{}
	opts.Explain = rec
	ctx := context.Background()
	if cfg.SolveDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.SolveDeadline)
		defer cancel()
	}
	log := cfg.Log
	if log != nil {
		log = log.With("scheme", string(scheme), "query", q.Name(), "k", k)
	}
	start = time.Now()
	// No sampled fallback: the cell measures its MC series on its own
	// below, and the LICM series holds proven bounds or nothing.
	out := super.Bounds(ctx, core.BuildProblem(enc.DB, core.CountStar(rel)), super.Config{Solver: opts, Log: log})
	cell.LSolve = time.Since(start)
	if out.Infeasible {
		// A store no world satisfies is an encoder bug, not a cell
		// result: fail the sweep with the side's error (-check
		// diagnostics included).
		err := out.Max.Err
		if !errors.Is(err, solver.ErrInfeasible) {
			err = out.Min.Err
		}
		sp.End(obs.Bool("ok", false))
		return cell, fmt.Errorf("bench: %s/%s k=%d: %w", scheme, q.Name(), k, err)
	}
	cell.Quality = out.Quality.String()
	cell.LMin, cell.LMax = out.Interval()
	cell.LMinFound, cell.LMaxFound = out.Min.Hi, out.Max.Lo
	cell.LMinProven = out.Min.Quality == super.Exact
	cell.LMaxProven = out.Max.Quality == super.Exact
	// The work and prune figures are the max side's, zero when its
	// solve did not complete: summed over both sides, a min side
	// stalled at the node budget would hide max-side growth from
	// bench-diff's nodes gate.
	st := out.Max.Stats
	cell.VarsPruned, cell.ConsPruned = st.VarsAfterPrune, st.ConsAfterPrune
	cell.Nodes, cell.LPSolves, cell.Propagations = st.Nodes, st.LPSolves, st.Propagations
	cell.PruneTime, cell.PresolveTime, cell.SearchTime = st.PruneTime, st.PresolveTime, st.SearchTime
	if st.VarsBefore > 0 {
		cell.PruneRatio = 1 - float64(st.VarsAfterPrune)/float64(st.VarsBefore)
	}
	cell.Components, cell.MaxCompVars = explain.ComponentSummary(rec)
	if cfg.Explain {
		rep := explain.Build(cell.Query, rec)
		rep.Scheme = string(scheme)
		rep.K = k
		rep.Quality = cell.Quality
		cell.Explain = rep
	}
	if cfg.Certify {
		// Certification is a pass over the record after the solve, so
		// its time is not part of LSolve.
		certs, err := cert.Build(cell.Query, string(scheme), k, solver.Certify(ctx, rec))
		if err != nil {
			sp.End(obs.Bool("ok", false))
			return cell, fmt.Errorf("bench: %s/%s k=%d: %w", scheme, q.Name(), k, err)
		}
		cell.Certs = certs
	}

	start = time.Now()
	sampler := mc.NewSampler(enc, seedflag.Derive(cfg.Seed, seedflag.MCStream))
	sampler.SetTracer(cfg.Trace)
	sampler.SetMetrics(cfg.Metrics)
	r := sampler.Run(q, cfg.MCSamples)
	cell.MCTime = time.Since(start)
	cell.MMin, cell.MMax = r.Min, r.Max
	cell.MCAcceptance = r.AcceptanceRate()
	sp.End(
		obs.Bool("ok", true),
		obs.Str("quality", cell.Quality),
		obs.I64("l_min", cell.LMin), obs.I64("l_max", cell.LMax),
		obs.I64("nodes", cell.Nodes),
		obs.F64("prune_ratio", cell.PruneRatio),
		obs.DurNs("solve", cell.LSolve),
	)
	return cell, nil
}
