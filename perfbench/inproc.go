package main

import (
	"context"
	"runtime"
	"time"

	"licm/internal/core"
	"licm/internal/encode"
	"licm/internal/explain"
	"licm/internal/expr"
	"licm/internal/obs"
	"licm/internal/seedflag"
	"licm/internal/solver"
	"licm/internal/super"
	"licm/internal/workload"
)

// inproc answers queries in the benchmark's own process with one
// caller: newEnc → Spec.Build → core.BuildProblem → super.Bounds.
type inproc struct {
	cfg    workload.Config
	newEnc func() *encode.Encoded
}

func newInproc(st *store) (*inproc, error) {
	cfg := st.config()
	newEnc, err := cfg.Encoder()
	if err != nil {
		return nil, err
	}
	return &inproc{cfg: cfg, newEnc: newEnc}, nil
}

// superConfig is the supervised solve of one query: the store's solver
// options and the sampled fallback rung, seeded per spec as licmd
// seeds it. There is no deadline; the node budget bounds the work.
func (e *inproc) superConfig(enc *encode.Encoded, obj expr.Lin, sp workload.Spec, opts solver.Options) super.Config {
	return super.Config{
		Solver: opts,
		Sample: super.MCFallback(enc, obj,
			seedflag.Derive(dataSeed, seedflag.FallbackStream)+int64(sp.ID), e.cfg.MCSamples),
	}
}

func (e *inproc) answerAll(specs []workload.Spec) []answer {
	out := make([]answer, len(specs))
	for i, sp := range specs {
		t0 := time.Now()
		enc := e.newEnc()
		obj, _, err := sp.Build(enc)
		if err != nil {
			out[i] = answer{spec: sp, err: err, latency: time.Since(t0)}
			continue
		}
		o := super.Bounds(context.Background(), core.BuildProblem(enc.DB, obj),
			e.superConfig(enc, obj, sp, e.cfg.Solver))
		out[i] = fromOutcome(sp, o, time.Since(t0))
	}
	return out
}

func fromOutcome(sp workload.Spec, o super.Outcome, lat time.Duration) answer {
	lb, ub := o.Interval()
	return answer{spec: sp, quality: o.Quality.String(), lb: lb, ub: ub,
		infeasible: o.Infeasible, latency: lat}
}

// setupSample times one set-up from nothing to ready to answer:
// generate and anonymize the data, then build one full base encoding.
func (e *inproc) setupSample() (time.Duration, error) {
	return timedSetup(e.cfg, nil)
}

// timedSetup runs one set-up after a GC. With a tracer it records the
// anonymization (workload.Config.Encoder: dataset generation plus
// anonymization) and the base encoding as spans.
func timedSetup(cfg workload.Config, tr *obs.Tracer) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	root := tr.Start("setup")
	defer root.End()
	sp := root.Start("setup.anonymize")
	newEnc, err := cfg.Encoder()
	sp.End()
	if err != nil {
		return 0, err
	}
	sp = root.Start("setup.encode")
	newEnc()
	sp.End()
	return time.Since(t0), nil
}

func (e *inproc) close() error { return nil }

// traced answers specs like answerAll, with a span around each call
// into a layer and the layer's heap allocation as a span attribute.
// The tracer is the benchmark's own; the program never sees it.
func (e *inproc) traced(tr *obs.Tracer, specs []workload.Spec, ls *layers) []answer {
	out := make([]answer, len(specs))
	for i, sp := range specs {
		qt := tr.Fork(nil, obs.Int("query_id", sp.ID))
		t0 := time.Now()
		root := qt.Start("query", obs.Str("name", sp.Name()))
		s := root.Start("encode")
		a0 := allocBytes()
		enc := e.newEnc()
		a1 := allocBytes()
		s.End(obs.I64("alloc_bytes", a1-a0))
		vars0 := enc.DB.NumVars()
		s = root.Start("build")
		obj, _, err := sp.Build(enc)
		a2 := allocBytes()
		s.End(obs.I64("alloc_bytes", a2-a1), obs.Int("vars_added", enc.DB.NumVars()-vars0))
		if err != nil {
			root.End()
			out[i] = answer{spec: sp, err: err, latency: time.Since(t0)}
			continue
		}
		s = root.Start("problem")
		p := core.BuildProblem(enc.DB, obj)
		s.End()
		s = root.Start("solve")
		a3 := allocBytes()
		o := super.Bounds(context.Background(), p, e.superConfig(enc, obj, sp, e.cfg.Solver))
		a4 := allocBytes()
		s.End(obs.I64("alloc_bytes", a4-a3), obs.Str("quality", o.Quality.String()))
		root.End()
		out[i] = fromOutcome(sp, o, time.Since(t0))

		ls.encodeAlloc += a1 - a0
		ls.buildAlloc += a2 - a1
		ls.solveAlloc += a4 - a3
		ls.varsAdded += int64(enc.DB.NumVars() - vars0)
		for _, st := range []solver.Stats{o.Min.Stats, o.Max.Stats} {
			ls.addStats(st)
		}
	}
	return out
}

// explained answers specs with the solver's ExplainRecorder attached,
// for the counts only it can give: LP-skipped components and component
// recurrence. The recorder slows the solve, so this pass is not timed.
func (e *inproc) explained(specs []workload.Spec, ls *layers) []answer {
	out := make([]answer, len(specs))
	census := explain.NewCensus()
	dfs := e.cfg.Solver.DFSThreshold
	for i, sp := range specs {
		enc := e.newEnc()
		obj, _, err := sp.Build(enc)
		if err != nil {
			out[i] = answer{spec: sp, err: err}
			continue
		}
		opts := e.cfg.Solver
		xrec := &solver.ExplainRecorder{}
		opts.Explain = xrec
		o := super.Bounds(context.Background(), core.BuildProblem(enc.DB, obj), e.superConfig(enc, obj, sp, opts))
		out[i] = fromOutcome(sp, o, 0)
		rep := explain.Build(sp.Name(), xrec)
		census.Observe(rep)
		for _, run := range rep.Runs {
			for _, c := range run.Components {
				// Above the DFS threshold the search bounds with the LP;
				// a component there with no LP solve skipped it.
				if c.Vars > dfs && c.LPSolves == 0 {
					ls.lpSkipped++
				}
			}
		}
	}
	ls.recurrence = census.Summarize(1).HitRate
	return out
}
