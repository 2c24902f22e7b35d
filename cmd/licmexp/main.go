// Command licmexp regenerates the paper's evaluation figures on the
// synthetic BMS-POS-shaped dataset: Figure 5 (LICM vs Monte-Carlo
// bounds across anonymity parameters), Figure 6 (timing split), and
// Figure 7 (pruning effectiveness), plus the solver and MC-sample
// ablations from DESIGN.md.
//
// Usage:
//
//	licmexp -fig all -trans 2000
//	licmexp -fig 5 -trans 5000 -ks 2,4,6,8
//	licmexp -fig 5 -deadline 10s       # cap each cell's supervised solve; late cells degrade, the sweep survives
//
// Observability:
//
//	licmexp -fig 5 -trace run.jsonl    # JSON-lines trace of every cell
//	licmexp -fig 6 -json cells.json    # machine-readable cells with solve summaries
//	licmexp -fig all -debug-addr :6060 # pprof + /metrics + live dashboard while the sweep runs
//	licmexp -fig 5 -snapshot dev       # BENCH_dev.json for licmtrace bench-diff
//	licmexp -fig 5 -explain-json explain.jsonl  # per-cell licm-explain/1 records for licmtrace census
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"licm/internal/bench"
	"licm/internal/cert"
	"licm/internal/explain"
	"licm/internal/obs"
	"licm/internal/seedflag"
)

func main() {
	var (
		fig          = flag.String("fig", "all", "which figure to run: 5 | 6 | 7 | ablation | all")
		trans        = flag.Int("trans", 2000, "number of transactions")
		items        = flag.Int("items", 400, "number of item types")
		ks           = flag.String("ks", "2,4,6,8", "anonymity parameters (comma separated)")
		mcN          = flag.Int("mc", 20, "Monte-Carlo sample count")
		nodes        = flag.Int64("maxnodes", 300_000, "solver node budget per solve")
		cellDeadline = flag.Duration("deadline", 0, "wall-clock cap per cell solve; a cell that runs out degrades to quality=proven-interval or quality=failed instead of aborting the sweep (0 = no cap)")
		vet          = flag.Bool("check", false, "run the static diagnostics pass on every BIP before solving; an encoder bug that emits a provably infeasible store fails fast with diagnostics instead of burning the node budget")

		tracePath = flag.String("trace", "", "write a JSON-lines trace of every experiment cell to this file")
		verbose   = flag.Bool("verbose", false, "print a human-readable trace to stderr")
		debugAddr = flag.String("debug-addr", "", "serve pprof, expvar, Prometheus /metrics and the /debug/licm dashboard on this address, e.g. :6060")
		jsonPath  = flag.String("json", "", "write the measured cells (figures 5/6/7) as JSON to this file")
		snapLabel = flag.String("snapshot", "", "write a BENCH_<label>.json benchmark snapshot (cells + run metadata) for licmtrace bench-diff")
		expPath   = flag.String("explain-json", "", "write every cell's licm-explain/1 record (JSONL) to this file and print a component census summary; feeds licmtrace census")
		certPath  = flag.String("certify", "", "write every cell's licm-cert/1 optimality certificates (JSONL) to this file; check them with licmverify")
	)
	seed := seedflag.Register(flag.CommandLine)
	var logOpts obs.LogOptions
	logOpts.RegisterFlags(flag.CommandLine)
	flag.Parse()

	logger, err := logOpts.NewLogger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	tr, closeTrace, err := obs.Setup(*tracePath, *verbose, os.Stderr)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := closeTrace(); err != nil {
			fatal(err)
		}
	}()
	metrics := obs.NewRegistry()
	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, metrics)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/ — /debug/pprof/, /debug/vars, /metrics, /debug/licm\n", srv.Addr())
	}

	cfg := bench.DefaultConfig()
	cfg.NumTransactions = *trans
	cfg.NumItems = *items
	cfg.MCSamples = *mcN
	cfg.Seed = *seed
	cfg.Solver.MaxNodes = *nodes
	cfg.Solver.Check = *vet
	cfg.SolveDeadline = *cellDeadline
	cfg.Q3Frac = 0 // recompute for the chosen scale
	var parsed []int
	for _, part := range strings.Split(*ks, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			fatal(fmt.Errorf("bad -ks entry %q", part))
		}
		parsed = append(parsed, v)
	}
	cfg.Ks = parsed
	cfg.Trace = tr
	cfg.Metrics = metrics
	cfg.Log = logger
	cfg.Explain = *expPath != ""
	cfg.Certify = *certPath != ""

	runStart := time.Now()
	var allCells []bench.Cell
	run := func(name string, f func() ([]bench.Cell, error)) {
		fmt.Printf("== %s ==\n", name)
		cells, err := f()
		if err != nil {
			fatal(err)
		}
		allCells = append(allCells, cells...)
		fmt.Println()
	}
	noCells := func(f func() error) func() ([]bench.Cell, error) {
		return func() ([]bench.Cell, error) { return nil, f() }
	}
	switch *fig {
	case "5":
		run("Figure 5", func() ([]bench.Cell, error) { return cfg.Fig5(os.Stdout) })
	case "6":
		run("Figure 6", func() ([]bench.Cell, error) { return cfg.Fig6(os.Stdout) })
	case "7":
		run("Figure 7", func() ([]bench.Cell, error) { return cfg.Fig7(os.Stdout) })
	case "ablation":
		run("Solver ablation", noCells(func() error { _, err := cfg.AblationSolver(os.Stdout); return err }))
		run("MC sample sweep", noCells(func() error {
			_, err := cfg.AblationMCSamples(os.Stdout, []int{5, 20, 100, 500})
			return err
		}))
	case "all":
		run("Figure 5", func() ([]bench.Cell, error) { return cfg.Fig5(os.Stdout) })
		run("Figure 6", func() ([]bench.Cell, error) { return cfg.Fig6(os.Stdout) })
		run("Figure 7", func() ([]bench.Cell, error) { return cfg.Fig7(os.Stdout) })
		run("Solver ablation", noCells(func() error { _, err := cfg.AblationSolver(os.Stdout); return err }))
		run("MC sample sweep", noCells(func() error {
			_, err := cfg.AblationMCSamples(os.Stdout, []int{5, 20, 100, 500})
			return err
		}))
	default:
		fatal(fmt.Errorf("unknown -fig %q", *fig))
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteCellsJSON(f, allCells); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d cells to %s\n", len(allCells), *jsonPath)
	}

	if *expPath != "" {
		f, err := os.Create(*expPath)
		if err != nil {
			fatal(err)
		}
		census := explain.NewCensus()
		census.SetMetrics(metrics)
		n := 0
		for _, cell := range allCells {
			if cell.Explain == nil {
				continue
			}
			if err := explain.WriteJSONL(f, cell.Explain); err != nil {
				f.Close()
				fatal(err)
			}
			census.Observe(cell.Explain)
			n++
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		s := census.Summarize(0)
		fmt.Printf("wrote %d explain records to %s\n", n, *expPath)
		fmt.Printf("component census: %d components over %d queries, %d distinct fingerprints, simulated cache hit rate %.1f%%\n",
			s.Components, s.Queries, s.Distinct, 100*s.HitRate)
	}

	if *certPath != "" {
		f, err := os.Create(*certPath)
		if err != nil {
			fatal(err)
		}
		n := 0
		for _, cell := range allCells {
			for _, c := range cell.Certs {
				if err := cert.WriteJSONL(f, c); err != nil {
					f.Close()
					fatal(err)
				}
				n++
			}
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d certificates to %s — verify with: licmverify %s\n", n, *certPath, *certPath)
	}

	if *snapLabel != "" {
		snap := bench.NewSnapshot(*snapLabel, cfg, allCells, time.Since(runStart))
		path := "BENCH_" + *snapLabel + ".json"
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteSnapshotJSON(f, snap); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote benchmark snapshot (%d cells) to %s\n", len(snap.Cells), path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "licmexp:", err)
	os.Exit(1)
}
