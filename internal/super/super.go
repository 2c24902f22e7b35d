// Package super is the anytime solve supervisor: it wraps the exact
// BIP solver behind a context deadline and a degradation ladder, so a
// caller always gets *an* answer with an honest quality tag instead of
// a hang, a panic, or a bare error.
//
// The ladder, from best to worst:
//
//  1. Exact — both solves finished and proved their optima.
//  2. ProvenInterval — the budget or deadline ran out (or a solve
//     died), but the solve's per-component record of incumbents and
//     bounds still yields a proven outer interval containing the true
//     answer.
//  3. Sampled — no feasible incumbent exists for some side; a
//     Monte-Carlo estimate (internal/mc) is reported with explicitly
//     non-proven status.
//  4. Failed — nothing usable could be produced (e.g. no sampler was
//     configured and the solve's record yields no interval).
//
// Solver panics are recovered at the supervisor boundary into
// structured errors naming the offending component; a panicked solve
// is retried once with a perturbed branching order before degrading.
package super

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"licm/internal/encode"
	"licm/internal/expr"
	"licm/internal/mc"
	"licm/internal/obs"
	"licm/internal/solver"
)

// Quality tags how much trust a supervised result deserves. Order is
// worst-to-best so the overall quality of an outcome is the minimum of
// its sides.
type Quality int

const (
	// Failed means no usable value was produced for some side.
	Failed Quality = iota
	// Sampled means some side carries only a Monte-Carlo estimate:
	// feasible worlds were seen, but the true optimum may lie far
	// outside the reported range.
	Sampled
	// ProvenInterval means every side carries a proven outer interval
	// containing its true optimum (at least one side is not exact).
	ProvenInterval
	// Exact means both optima were found and proven.
	Exact
)

// String returns the stable lower-case tag used in CLI and JSON output.
func (q Quality) String() string {
	switch q {
	case Exact:
		return "exact"
	case ProvenInterval:
		return "proven-interval"
	case Sampled:
		return "sampled"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("Quality(%d)", int(q))
	}
}

// Config controls a supervised solve.
type Config struct {
	// Solver holds the base solver options. Every attempt records on
	// Solver.Explain — a recorder of the supervisor's own when it is
	// nil — and the supervisor reads each cut-short attempt's anytime
	// interval from the run it opened there. On retry the supervisor
	// owns OrderSeed; everything else passes through. Trace/Metrics,
	// when set, also receive the supervisor's own events and counters
	// (super.*).
	Solver solver.Options
	// Sample, if non-nil, is the degraded-mode fallback: it returns the
	// lowest and highest objective values observed over sampled worlds
	// (see MCFallback). Called at most once per Bounds call.
	Sample func() (lo, hi int64, ok bool)
	// RetrySeed perturbs the branching order of the retry after a
	// recovered panic; 0 uses a fixed default. The retry is
	// deterministic either way.
	RetrySeed int64
	// Log, if non-nil, receives warn-level records at the supervisor
	// boundary — degradation below exact, recovered panics, witness
	// exhaustion — so the degradation ladder is visible to log
	// pipelines, not only to trace consumers. nil disables logging.
	Log *slog.Logger
}

// Side is one direction (min or max) of a supervised Bounds call.
type Side struct {
	// Quality of this side alone.
	Quality Quality
	// Lo and Hi bracket the side's true optimum when Quality is Exact
	// (Lo == Hi) or ProvenInterval (Lo <= optimum <= Hi). For Sampled
	// they both hold the non-proven sampled estimate; for Failed they
	// are meaningless.
	Lo, Hi int64
	// Err is the terminal condition that forced degradation below
	// Exact: a wrapped solver error, a *solver.CompPanic, or a context
	// error. nil when the side is exact.
	Err error
	// Stats reports the solver work of the attempt that produced the
	// value (zero when no solve completed).
	Stats solver.Stats
}

// Outcome is the result of a supervised Bounds call. It never reports
// a panic and is always produced, whatever the solver did.
type Outcome struct {
	// Quality is the overall tag: the weaker of the two sides.
	Quality Quality
	// Min and Max are the two directions of the aggregate interval.
	Min, Max Side
	// Infeasible reports that the solver proved no possible world
	// exists; Quality is Exact (it is a proven fact) and the sides'
	// bounds are meaningless.
	Infeasible bool
	// Elapsed is the wall-clock budget spent in the supervisor,
	// including retries and the sampled fallback.
	Elapsed time.Duration
	// Retries counts perturbed-order re-solves after recovered panics.
	Retries int
	// PanicsRecovered counts solver panics contained at the boundary.
	PanicsRecovered int
}

// Interval returns the outer [lo, hi] the outcome claims for the
// aggregate answer: lo from the min side, hi from the max side. The
// claim is proven only when Quality is Exact or ProvenInterval.
func (o Outcome) Interval() (lo, hi int64) {
	return o.Min.Lo, o.Max.Hi
}

// Bounds computes the min and max of p.Objective under supervision:
// the context's deadline/cancellation bounds the solve (and any fault
// plan it carries reaches every attempt), panics are contained (one
// perturbed retry each), and on any shortfall the result degrades down
// the ladder instead of erroring out.
func Bounds(ctx context.Context, p *solver.Problem, cfg Config) Outcome {
	start := time.Now()
	tr := cfg.Solver.Trace
	reg := cfg.Solver.Metrics
	sp := tr.Start("super.solve",
		obs.Int("vars", p.NumVars),
		obs.Int("cons", len(p.Constraints)))
	if cfg.Solver.Explain == nil {
		cfg.Solver.Explain = &solver.ExplainRecorder{}
	}
	s := &run{ctx: ctx, cfg: cfg, p: p, tr: tr, reg: reg}
	out := Outcome{}
	out.Max = s.side(true)
	out.Min = s.side(false)
	out.Retries, out.PanicsRecovered = s.retries, s.panics
	out.Infeasible = s.infeasible
	out.Quality = out.Max.Quality
	if out.Min.Quality < out.Quality {
		out.Quality = out.Min.Quality
	}
	if out.Infeasible {
		out.Quality = Exact
	}
	out.Elapsed = time.Since(start)
	if reg != nil {
		reg.Counter("super." + counterName(out.Quality)).Inc()
	}
	if out.Quality != Exact {
		tr.Event("super.degraded",
			obs.Str("quality", out.Quality.String()),
			obs.Str("min_quality", out.Min.Quality.String()),
			obs.Str("max_quality", out.Max.Quality.String()))
		s.warn("supervised solve degraded",
			"quality", out.Quality.String(),
			"min_quality", out.Min.Quality.String(),
			"max_quality", out.Max.Quality.String(),
			"retries", out.Retries,
			"panics_recovered", out.PanicsRecovered)
	}
	sp.End(
		obs.Str("quality", out.Quality.String()),
		obs.Bool("infeasible", out.Infeasible),
		obs.Int("retries", out.Retries),
		obs.Int("panics_recovered", out.PanicsRecovered),
		obs.DurNs("elapsed", out.Elapsed),
		obs.I64("alloc_bytes", out.Min.Stats.AllocBytes+out.Max.Stats.AllocBytes),
		obs.I64("peak_heap", maxI64(out.Min.Stats.PeakHeap, out.Max.Stats.PeakHeap)))
	return out
}

// maxI64 returns the larger of two int64 readings.
func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// counterName maps a quality to its super.* counter suffix.
func counterName(q Quality) string {
	switch q {
	case Exact:
		return "exact"
	case ProvenInterval:
		return "proven_interval"
	case Sampled:
		return "sampled"
	default:
		return "failed"
	}
}

// run carries the mutable state of one Bounds call.
type run struct {
	ctx context.Context
	cfg Config
	p   *solver.Problem
	tr  *obs.Tracer
	reg *obs.Registry

	retries    int
	panics     int
	infeasible bool

	sampled       bool
	sampleLo      int64
	sampleHi      int64
	sampleOK      bool
	sampleElapsed time.Duration
}

// side runs the degradation ladder for one direction and stamps the
// side's final quality onto every run it recorded for this sense
// (retries included) — the explain layer's only window into the
// ladder's verdict.
func (s *run) side(maximize bool) Side {
	name := "min"
	if maximize {
		name = "max"
	}
	sd := s.ladder(name, maximize)
	s.cfg.Solver.Explain.TagSense(name, sd.Quality.String())
	return sd
}

// ladder is the degradation ladder proper.
func (s *run) ladder(name string, maximize bool) Side {
	opts := s.cfg.Solver
	rec := opts.Explain
	// attempt is the run the latest solve attempt opens on rec; a
	// skipped side opens none, so its interval lookup finds nothing.
	attempt := rec.Len()

	var res solver.Result
	var err error
	var pan *solver.CompPanic
	if s.ctx.Err() != nil {
		// The deadline was spent before this side started: skip the
		// solve entirely (no run is recorded, so the ladder falls
		// straight to the sampled fallback).
		err = fmt.Errorf("super: %s side skipped: %w", name, s.ctx.Err())
	} else {
		res, err, pan = guardedSolve(s.ctx, s.p, opts, maximize)
		if pan != nil {
			s.recordPanic(name, pan)
			// One retry with a perturbed branching order: a crash tied
			// to one exploration path should not be replayed verbatim.
			// The retry opens a run of its own and the interval is read
			// from that run, so it never mixes with the dead solve's.
			s.retries++
			if s.reg != nil {
				s.reg.Counter("super.retries").Inc()
			}
			s.tr.Event("super.retry", obs.Str("side", name), obs.Int("component", pan.Component))
			opts.OrderSeed = s.retrySeed()
			attempt = rec.Len()
			var pan2 *solver.CompPanic
			res, err, pan2 = guardedSolve(s.ctx, s.p, opts, maximize)
			if pan2 != nil {
				s.recordPanic(name, pan2)
			}
			pan = pan2
		}
	}

	if res.Stats.WitnessExhausted {
		s.warn("witness completion exhausted its node budget",
			"side", name, "nodes", res.Stats.Nodes)
	}
	switch {
	case pan == nil && err == nil && res.Proven:
		return Side{Quality: Exact, Lo: res.Value, Hi: res.Value, Stats: res.Stats}
	case pan == nil && err == nil:
		// Anytime result from the solver itself: Value is feasible,
		// Bound proven (upper for max, lower for min).
		sd := Side{Quality: ProvenInterval, Stats: res.Stats,
			Err: fmt.Errorf("super: %s side unproven within budget", name)}
		if maximize {
			sd.Lo, sd.Hi = res.Value, res.Bound
		} else {
			sd.Lo, sd.Hi = res.Bound, res.Value
		}
		return sd
	case pan == nil && errors.Is(err, solver.ErrInfeasible):
		s.infeasible = true
		return Side{Quality: Exact, Err: err}
	}
	if pan != nil {
		err = pan
	}
	// Assemble the anytime interval from the attempt's run record.
	// Its values are in the internal maximization sense; Minimize
	// negates the objective, so the min side negates and swaps the
	// ends.
	if lo, hi, hasLo, ok := rec.Interval(attempt); ok && hasLo {
		sd := Side{Quality: ProvenInterval, Err: err}
		if maximize {
			sd.Lo, sd.Hi = lo, hi
		} else {
			sd.Lo, sd.Hi = -hi, -lo
		}
		s.tr.Event("super.degraded",
			obs.Str("side", name),
			obs.Str("to", "proven-interval"),
			obs.I64("lo", sd.Lo),
			obs.I64("hi", sd.Hi))
		return sd
	}
	// No feasible incumbent anywhere: sampled estimate, clearly
	// non-proven.
	if lo, hi, ok := s.sample(); ok {
		v := lo
		if maximize {
			v = hi
		}
		s.tr.Event("super.degraded",
			obs.Str("side", name),
			obs.Str("to", "sampled"),
			obs.I64("value", v))
		return Side{Quality: Sampled, Lo: v, Hi: v, Err: err}
	}
	s.tr.Event("super.degraded", obs.Str("side", name), obs.Str("to", "failed"))
	return Side{Quality: Failed, Err: err}
}

// retrySeed returns the deterministic branching-order perturbation of
// the panic retry.
func (s *run) retrySeed() int64 {
	if s.cfg.RetrySeed != 0 {
		return s.cfg.RetrySeed
	}
	return 0x5eedbeef
}

// sample invokes the configured fallback at most once per Bounds call
// (both sides share the observed world range).
func (s *run) sample() (lo, hi int64, ok bool) {
	if !s.sampled {
		s.sampled = true
		if s.cfg.Sample != nil {
			t0 := time.Now()
			s.sampleLo, s.sampleHi, s.sampleOK = s.cfg.Sample()
			s.sampleElapsed = time.Since(t0)
		}
	}
	return s.sampleLo, s.sampleHi, s.sampleOK
}

// recordPanic counts, traces and logs one contained solver panic.
func (s *run) recordPanic(side string, pan *solver.CompPanic) {
	s.panics++
	if s.reg != nil {
		s.reg.Counter("super.panics_recovered").Inc()
	}
	s.tr.Event("super.panic_recovered",
		obs.Str("side", side),
		obs.Int("component", pan.Component),
		obs.Str("value", fmt.Sprintf("%v", pan.Value)))
	s.warn("solver panic recovered at supervisor boundary",
		"side", side,
		"component", pan.Component,
		"value", fmt.Sprintf("%v", pan.Value))
}

// warn emits one warn-level record on the configured logger; a nil
// logger discards, mirroring the obs nil no-op contract.
func (s *run) warn(msg string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Warn(msg, args...)
	}
}

// guardedSolve runs one solver call with the panic boundary installed:
// any panic surfaces as a *solver.CompPanic instead of unwinding the
// caller.
func guardedSolve(ctx context.Context, p *solver.Problem, opts solver.Options, maximize bool) (res solver.Result, err error, pan *solver.CompPanic) {
	defer func() {
		if r := recover(); r != nil {
			if cp, ok := r.(*solver.CompPanic); ok {
				pan = cp
				return
			}
			pan = &solver.CompPanic{Component: -1, Value: r}
		}
	}()
	if maximize {
		res, err = solver.Maximize(ctx, p, opts)
	} else {
		res, err = solver.Minimize(ctx, p, opts)
	}
	return res, err, nil
}

// MCFallback builds a Config.Sample closure over the Monte-Carlo
// sampler: n uniformly sampled worlds of the encoded database,
// objective evaluated directly on each. Sampling is deterministic in
// seed.
func MCFallback(enc *encode.Encoded, obj expr.Lin, seed int64, n int) func() (lo, hi int64, ok bool) {
	return func() (int64, int64, bool) {
		if n <= 0 {
			return 0, 0, false
		}
		est := mc.NewSampler(enc, seed).EstimateObjective(obj, n)
		return est.Min, est.Max, true
	}
}
