// Command licmq answers one of the paper's aggregate queries over an
// anonymized dataset: it anonymizes the input in memory, encodes it
// into LICM, translates the query, and reports the exact (or proven
// outer) lower and upper bounds from the BIP solver — optionally
// alongside the naive Monte-Carlo range for comparison.
//
// Usage:
//
//	licmq -in data.txt -scheme k -k 4 -query q1
//	licmq -in data.txt -scheme bipartite -k 4 -query q3 -mc 20
//
// Observability:
//
//	licmq -in data.txt -query q1 -trace trace.jsonl   # JSON-lines trace
//	licmq -in data.txt -query q1 -verbose             # human-readable trace on stderr
//	licmq -in data.txt -query q3 -debug-addr :6060    # pprof, expvar, Prometheus /metrics, /debug/licm dashboard
//	licmq -in data.txt -query q1 -log-level info -log-format json   # structured logs on stderr
//
// Explain (per-query solve forensics, OBSERVABILITY.md "Explain & census"):
//
//	licmq -in data.txt -query q1 -explain                  # human-readable per-component breakdown
//	licmq -in data.txt -query q1 -explain-json report.jsonl  # licm-explain/1 record ("-" = stdout)
//
// Deadlines and strictness:
//
//	licmq -in data.txt -query q3 -deadline 5s          # degradation ladder under a hard deadline
//	licmq -in data.txt -query q1 -deadline 5s -strict  # exit 3 unless the result is exact
//
// Every solve runs under the anytime supervisor (internal/super): the
// result arrives with an explicit quality tag — exact,
// proven-interval, sampled, or failed — instead of a hang or a bare
// error, and with -deadline it arrives before the deadline.
//
// Exit status (internal/cliexit): 0 on success, 1 on any error
// (including a store that
// fails -check), 2 on unusable input or flags, and 3 when -strict is
// set and the result degraded below exact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"licm/internal/cert"
	"licm/internal/cliexit"
	"licm/internal/core"
	"licm/internal/dataset"
	"licm/internal/explain"
	"licm/internal/mc"
	"licm/internal/obs"
	"licm/internal/queries"
	"licm/internal/seedflag"
	"licm/internal/solver"
	"licm/internal/super"
	"licm/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("licmq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "input dataset (licmgen format; required)")
		scheme   = fs.String("scheme", "k", "anonymization scheme: km | k | bipartite | suppress")
		k        = fs.Int("k", 4, "anonymity parameter")
		m        = fs.Int("m", 2, "subset size m (km scheme)")
		minSupp  = fs.Int("minsupport", 10, "support threshold (suppress scheme)")
		fanout   = fs.Int("fanout", 8, "hierarchy fanout")
		query    = fs.String("query", "q1", "query: q1 | q2 | q3")
		q3x      = fs.Int("q3x", 2, "popularity threshold X for q3")
		q3frac   = fs.Float64("q3frac", 0.01, "selectivity of q3 location predicates")
		mcRuns   = fs.Int("mc", 0, "also run naive Monte-Carlo with this many worlds")
		maxNodes = fs.Int64("maxnodes", 2_000_000, "solver node budget (0 = unlimited)")
		lpOut    = fs.String("lp", "", "also export the maximization BIP in CPLEX LP format to this file")
		vet      = fs.Bool("check", false, "run the static diagnostics pass (internal/check) before solving; a provably infeasible store fails fast with its diagnostics")

		tracePath = fs.String("trace", "", "write a JSON-lines trace of operators, solver phases and MC sampling to this file")
		verbose   = fs.Bool("verbose", false, "print a human-readable trace to stderr")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof and expvar (live solver counters) on this address, e.g. :6060")

		deadline = fs.Duration("deadline", 0, "hard deadline for the solve; a cut-short result degrades with a quality tag instead of failing (0 = none)")
		strict   = fs.Bool("strict", false, "the result must be exact: exit 3 on any degraded (proven-interval, sampled, failed) result")
		fallback = fs.Int("fallback-samples", 200, "Monte-Carlo worlds for the sampled fallback when no proven bound exists (0 disables it)")

		explainFlag = fs.Bool("explain", false, "print a per-component solve breakdown (pruning effect, fingerprints, time shares)")
		seed        = seedflag.Register(fs)
		explainJSON = fs.String("explain-json", "", "write the licm-explain/1 report as one JSON line to this file (\"-\" = stdout)")
		certifyOut  = fs.String("certify", "", "write licm-cert/1 optimality certificates as JSON lines to this file (\"-\" = stdout); check them with licmverify")
	)
	var logOpts obs.LogOptions
	logOpts.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return cliexit.Usage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "licmq:", err)
		return cliexit.Findings
	}
	if *in == "" {
		fmt.Fprintln(stderr, "licmq: -in is required")
		return cliexit.Usage
	}
	logger, err := logOpts.NewLogger(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "licmq:", err)
		return cliexit.Usage
	}

	tr, closeTrace, err := obs.Setup(*tracePath, *verbose, stderr)
	if err != nil {
		return fail(err)
	}
	defer closeTrace()
	metrics := obs.NewRegistry()
	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, metrics)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "debug server on http://%s/ — /debug/pprof/, /debug/vars, /metrics, /debug/licm (dashboard)\n", srv.Addr())
	}
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(stderr, "licmq:", err)
		return cliexit.Usage
	}
	d, err := dataset.Read(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "licmq:", err)
		return cliexit.Usage
	}

	start := time.Now()
	// Suppression takes its support threshold from -minsupport, every
	// other scheme its anonymity parameter from -k.
	kk := *k
	if *scheme == "suppress" {
		kk = *minSupp
	}
	enc, err := workload.Anonymize(d, *scheme, kk, *m, *fanout)
	if err != nil {
		return fail(err)
	}
	tModel := time.Since(start)
	// One tracer covers the whole pipeline: query operators pick it up
	// from the DB, the supervisor and solver from opts.Trace.
	enc.DB.SetTracer(tr)

	var q queries.Query
	switch *query {
	case "q1":
		q = queries.PaperQ1(1000, 40)
	case "q2":
		q = queries.PaperQ2(1000, 40)
	case "q3":
		q = queries.PaperQ3(1000, *q3frac, *q3x)
	default:
		fmt.Fprintf(stderr, "licmq: unknown query %q\n", *query)
		return cliexit.Usage
	}

	start = time.Now()
	rel, err := q.BuildLICM(enc)
	if err != nil {
		return fail(err)
	}
	tQuery := time.Since(start)

	obj := core.CountStar(rel)
	p := core.BuildProblem(enc.DB, obj)
	if *lpOut != "" {
		f, err := os.Create(*lpOut)
		if err != nil {
			return fail(err)
		}
		if err := solver.WriteLP(f, p, solver.SenseMax); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote BIP instance to %s (%d vars, %d constraints)\n", *lpOut, p.NumVars, len(p.Constraints))
	}

	opts := solver.DefaultOptions()
	opts.MaxNodes = *maxNodes
	// licmq prints bounds, never the optimal world, so it skips
	// completing one.
	opts.CompleteWitness = false
	opts.Metrics = metrics
	opts.Check = *vet
	opts.Trace = tr
	// Explain reports and certificates both read the solve's record.
	wantExplain := *explainFlag || *explainJSON != ""
	var rec *solver.ExplainRecorder
	if wantExplain || *certifyOut != "" {
		rec = &solver.ExplainRecorder{}
		opts.Explain = rec
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	out := super.Bounds(ctx, p, super.Config{
		Solver: opts,
		Sample: super.MCFallback(enc, obj, seedflag.Derive(*seed, seedflag.FallbackStream), *fallback),
		Log:    logger,
	})
	for _, err := range []error{out.Max.Err, out.Min.Err} {
		var ce *solver.CheckError
		if errors.As(err, &ce) {
			fmt.Fprintln(stderr, "licmq: the encoded store failed static checks:")
			for _, d := range ce.Report.Diags {
				fmt.Fprintln(stderr, "  "+d.String())
			}
			return cliexit.Findings
		}
	}
	printOutcome(stdout, fmt.Sprintf("%s over %s(k=%d)", q.Name(), *scheme, *k), out, tModel, tQuery, metrics)
	exitCode := cliexit.OK
	if *strict && out.Quality != super.Exact {
		fmt.Fprintf(stdout, "strict mode: result degraded below exact\n")
		exitCode = cliexit.Degraded
	}

	if wantExplain {
		rep := explain.Build(q.Name(), rec)
		rep.Scheme = *scheme
		rep.K = *k
		rep.Quality = out.Quality.String()
		// Feed the single-query census so the explain instruments
		// (licm_explain_components_total, licm_explain_distinct_fingerprints)
		// are live on /metrics and the dashboard alongside the solver's.
		census := explain.NewCensus()
		census.SetMetrics(metrics)
		census.Observe(rep)
		if *explainFlag {
			printExplain(stdout, rep)
		}
		if *explainJSON != "" {
			w := io.Writer(stdout)
			if *explainJSON != "-" {
				f, err := os.Create(*explainJSON)
				if err != nil {
					return fail(err)
				}
				defer f.Close()
				w = f
			}
			if err := explain.WriteJSONL(w, rep); err != nil {
				return fail(err)
			}
		}
	}
	if *certifyOut != "" {
		// Certification is a pass over the record after the solve, so
		// its time is not part of L-solve.
		certs, err := cert.Build(q.Name(), *scheme, *k, solver.Certify(ctx, rec))
		if err != nil {
			return fail(err)
		}
		w := io.Writer(stdout)
		if *certifyOut != "-" {
			f, err := os.Create(*certifyOut)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			w = f
		}
		for _, c := range certs {
			if err := cert.WriteJSONL(w, c); err != nil {
				return fail(err)
			}
		}
	}
	if exitCode != cliexit.OK {
		return exitCode
	}

	if *mcRuns > 0 {
		start = time.Now()
		sampler := mc.NewSampler(enc, seedflag.Derive(*seed, seedflag.MCStream))
		sampler.SetTracer(tr)
		r := sampler.Run(q, *mcRuns)
		fmt.Fprintf(stdout, "Monte-Carlo (%d worlds): observed range [%d, %d] in %v\n",
			*mcRuns, r.Min, r.Max, time.Since(start))
	}
	return cliexit.OK
}

// printExplain renders the licm-explain/1 report for humans: the
// pruning funnel, then one table per run attributing the search time
// to the decomposed components.
func printExplain(w io.Writer, rep *explain.Report) {
	p := rep.Prune
	fmt.Fprintf(w, "explain: quality=%s; store %d vars, %d cons -> pruned %d vars, %d cons; presolve fixed %d\n",
		rep.Quality, p.VarsBefore, p.ConsBefore, p.VarsAfter, p.ConsAfter, p.FixedByPresolve)
	for _, run := range rep.Runs {
		fmt.Fprintf(w, "  %s:", run.Sense)
		if run.Quality != "" {
			fmt.Fprintf(w, " quality=%s", run.Quality)
		}
		fmt.Fprintf(w, " nodes=%d lp_solves=%d propagations=%d search=%v total=%v",
			run.Nodes, run.LPSolves, run.Propagations,
			time.Duration(run.SearchNs).Round(time.Microsecond),
			time.Duration(run.TotalNs).Round(time.Microsecond))
		if run.Canceled {
			fmt.Fprint(w, " canceled")
		}
		if run.Err != "" {
			fmt.Fprintf(w, " err=%q", run.Err)
		}
		fmt.Fprintln(w)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "    comp\tfingerprint\tvars\tcons\tnodes\tlp\tsolve\tlp_time\tshare")
		for _, c := range run.Components {
			share := "-"
			if run.SearchNs > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(c.SolveNs)/float64(run.SearchNs))
			}
			fmt.Fprintf(tw, "    %d\t%s\t%d\t%d\t%d\t%d\t%v\t%v\t%s\n",
				c.Index, c.Fingerprint, c.Vars, c.Cons, c.Nodes, c.LPSolves,
				time.Duration(c.SolveNs).Round(time.Microsecond),
				time.Duration(c.LPNs).Round(time.Microsecond), share)
		}
		tw.Flush()
	}
}

// printOutcome reports a supervised solve: the quality-tagged answer,
// the pipeline timing, each side's own phases and search work, memory,
// the solver's latency histograms and the supervisor's bookkeeping.
// Every per-side line names the min side first, as the answer does.
func printOutcome(w io.Writer, head string, out super.Outcome, tModel, tQuery time.Duration, metrics *obs.Registry) {
	fmt.Fprintf(w, "%s: quality=%s", head, out.Quality)
	switch {
	case out.Infeasible:
		fmt.Fprintf(w, " infeasible (no possible world satisfies the constraints)\n")
	case out.Quality == super.Exact:
		fmt.Fprintf(w, " bounds [%d, %d]\n", out.Min.Lo, out.Max.Hi)
	case out.Quality == super.ProvenInterval:
		lo, hi := out.Interval()
		fmt.Fprintf(w, " proven outer interval [%d, %d] (min in [%d, %d], max in [%d, %d])\n",
			lo, hi, out.Min.Lo, out.Min.Hi, out.Max.Lo, out.Max.Hi)
	case out.Quality == super.Sampled:
		fmt.Fprintf(w, " sampled range [%d, %d] — NOT proven bounds\n", out.Min.Lo, out.Max.Hi)
	default:
		fmt.Fprintf(w, " no usable result\n")
	}
	sides := []struct {
		name string
		s    super.Side
	}{{"min", out.Min}, {"max", out.Max}}
	for _, sd := range sides {
		if sd.s.Err != nil {
			fmt.Fprintf(w, "  %s side degraded to %s: %v\n", sd.name, sd.s.Quality, sd.s.Err)
		}
	}
	fmt.Fprintf(w, "timing: L-model %v, L-query %v, L-solve %v\n", tModel, tQuery, out.Elapsed)
	mn, mx := out.Min.Stats, out.Max.Stats
	fmt.Fprintf(w, "solve phases: min prune %v, presolve %v, search %v; max prune %v, presolve %v, search %v\n",
		mn.PruneTime, mn.PresolveTime, mn.SearchTime, mx.PruneTime, mx.PresolveTime, mx.SearchTime)
	for _, sd := range sides {
		st := sd.s.Stats
		if st == (solver.Stats{}) {
			fmt.Fprintf(w, "%s side: no completed solve\n", sd.name)
			continue
		}
		fmt.Fprintf(w, "%s side: %d vars, %d constraints; after pruning %d vars, %d constraints; %d components, %d nodes, %d LP solves, %d propagations\n",
			sd.name, st.VarsBefore, st.ConsBefore, st.VarsAfterPrune, st.ConsAfterPrune,
			st.Components, st.Nodes, st.LPSolves, st.Propagations)
	}
	if alloc := mn.AllocBytes + mx.AllocBytes; alloc > 0 {
		fmt.Fprintf(w, "memory: %.1f MiB allocated during solve, peak heap %.1f MiB\n",
			float64(alloc)/(1<<20), float64(max(mn.PeakHeap, mx.PeakHeap))/(1<<20))
	}
	for _, h := range []struct{ name, label string }{
		{"solver.lp_ns", "LP relaxation latency"},
		{"solver.node_ns", "per-node latency"},
	} {
		if snap := metrics.Histogram(h.name).Snapshot(); snap.Count > 0 {
			fmt.Fprintf(w, "%s: n=%d mean=%v p50<%v p99<%v\n", h.label, snap.Count,
				time.Duration(int64(snap.Mean)).Round(time.Microsecond),
				time.Duration(snap.Quantile(0.5)), time.Duration(snap.Quantile(0.99)))
		}
	}
	fmt.Fprintf(w, "supervisor: elapsed %v, retries %d, panics recovered %d\n",
		out.Elapsed.Round(time.Millisecond), out.Retries, out.PanicsRecovered)
}
