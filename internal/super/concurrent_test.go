package super_test

import (
	"context"
	"sync"
	"testing"

	"licm/internal/core"
	"licm/internal/solver"
	"licm/internal/super"
	"licm/internal/workload"
)

// TestBoundsConcurrentSharedStore is the serving-path concurrency
// contract, run under the chaos CI job's -race build: many goroutines
// answer queries through super.Bounds against one shared encoded
// store, the way the licmd worker pool does, on every anonymization
// scheme. Two properties are pinned:
//
//   - No data race: the store is encoded once and frozen; each
//     goroutine grows its own fork of it (workload.Config.Encoder),
//     reading the shared definitions, constraints and relations in
//     place — the bipartite scheme builds TransItem through joins over
//     the shared group relations — and the solver treats the built
//     problem as read-only.
//   - Determinism under concurrency: every goroutine solving the same
//     spec must produce the identical outcome — scheduling must never
//     leak into proven figures.
func TestBoundsConcurrentSharedStore(t *testing.T) {
	// The bipartite store is smaller and coarser so its joins and
	// solves stay quick under -race; suppression needs a high support
	// threshold to hide items on 80 transactions.
	for _, sc := range []struct {
		scheme   string
		trans, k int
	}{{"km", 80, 4}, {"k", 80, 4}, {"bipartite", 30, 2}, {"suppress", 80, 12}} {
		t.Run(sc.scheme, func(t *testing.T) {
			boundsConcurrentSharedStore(t, workload.Config{
				NumTransactions: sc.trans,
				NumItems:        30,
				Scheme:          sc.scheme,
				K:               sc.k,
				Seed:            3,
			})
		})
	}
}

func boundsConcurrentSharedStore(t *testing.T, cfg workload.Config) {
	newEnc, err := cfg.Encoder()
	if err != nil {
		t.Fatalf("Encoder: %v", err)
	}
	specs := workload.GenerateSpecs(3, 11, 1000, 40)
	// A node budget ends the one bipartite spec the search cannot close
	// quickly at a proven interval; a budget-limited answer is as
	// deterministic as an exact one.
	scfg := chaosConfig()
	scfg.Solver.MaxNodes = 300

	const workers = 8
	type result struct {
		quality    super.Quality
		lo, hi     int64
		infeasible bool
	}
	results := make([][]result, len(specs))
	for i := range results {
		results[i] = make([]result, workers)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for si, sp := range specs {
				enc := newEnc()
				obj, _, err := sp.Build(enc)
				if err != nil {
					t.Errorf("worker %d: build %s: %v", w, sp.Name(), err)
					return
				}
				out := super.Bounds(context.Background(),
					core.BuildProblem(enc.DB, obj), scfg)
				lo, hi := out.Interval()
				results[si][w] = result{out.Quality, lo, hi, out.Infeasible}
			}
		}(w)
	}
	wg.Wait()

	for si, sp := range specs {
		ref := results[si][0]
		if ref.quality < super.ProvenInterval {
			t.Errorf("%s: concurrent solve degraded to %v with no fault injected", sp.Name(), ref.quality)
		}
		for w := 1; w < workers; w++ {
			if results[si][w] != ref {
				t.Errorf("%s: worker %d outcome %+v differs from worker 0 %+v — scheduling leaked into the answer",
					sp.Name(), w, results[si][w], ref)
			}
		}
	}
}

// TestBoundsConcurrentOneEncoding pins the stricter sharing mode: many
// goroutines solving different problems built from the same encoding's
// DB concurrently. BuildProblem and the solver only read the store, so
// this must be race-free too (queries that grow the store are excluded
// by construction — each Build here happened before the solves start).
func TestBoundsConcurrentOneEncoding(t *testing.T) {
	opts := solver.DefaultOptions()
	opts.CompleteWitness = false
	cfg := workload.Config{
		NumTransactions: 80,
		NumItems:        30,
		Scheme:          "k",
		K:               4,
		Seed:            3,
		Solver:          opts,
	}
	newEnc, err := cfg.Encoder()
	if err != nil {
		t.Fatalf("Encoder: %v", err)
	}
	specs := workload.GenerateSpecs(4, 11, 1000, 40)

	// One shared encoding: all specs grow it up front, then the solves
	// run concurrently against the final store.
	enc := newEnc()
	probs := make([]*solver.Problem, len(specs))
	for i, sp := range specs {
		obj, _, err := sp.Build(enc)
		if err != nil {
			t.Fatalf("build %s: %v", sp.Name(), err)
		}
		probs[i] = core.BuildProblem(enc.DB, obj)
	}

	var wg sync.WaitGroup
	outs := make([]super.Outcome, len(probs))
	for i := range probs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = super.Bounds(context.Background(), probs[i], chaosConfig())
		}(i)
	}
	wg.Wait()

	// Sequential reference solves on a fresh, identically-grown store:
	// concurrency must not change any proven figure.
	encRef := newEnc()
	for i, sp := range specs {
		obj, _, err := sp.Build(encRef)
		if err != nil {
			t.Fatalf("reference build %s: %v", sp.Name(), err)
		}
		if outs[i].Quality < super.ProvenInterval {
			t.Errorf("%s: concurrent solve degraded to %v with no fault injected", sp.Name(), outs[i].Quality)
			continue
		}
		ref := super.Bounds(context.Background(),
			core.BuildProblem(encRef.DB, obj), chaosConfig())
		lo, hi := outs[i].Interval()
		rlo, rhi := ref.Interval()
		if outs[i].Quality != ref.Quality || lo != rlo || hi != rhi {
			t.Errorf("%s: concurrent outcome %v [%d,%d] differs from sequential %v [%d,%d]",
				sp.Name(), outs[i].Quality, lo, hi, ref.Quality, rlo, rhi)
		}
	}
}
