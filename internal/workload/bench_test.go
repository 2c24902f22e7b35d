package workload

import (
	"context"
	"testing"

	"licm/internal/core"
	"licm/internal/encode"
	"licm/internal/explain"
	"licm/internal/expr"
	"licm/internal/solver"
	"licm/internal/super"
)

// lookupConfig is the store of the benchmark's lookup-1k workload:
// 1000 transactions over 200 items, k-anonymized with k = 4, seed 7.
func lookupConfig() Config {
	return Config{NumTransactions: 1000, NumItems: 200, Scheme: "k", K: 4, Seed: 7}
}

// lookupSpecs are a fixed Query-1 and a fixed Query-2 spec on the
// lookup-1k store.
var lookupSpecs = []Spec{
	{ID: 7, Kind: "q1", Agg: "count", PaLo: 842, PaHi: 975, PbLo: 24, PbHi: 31},
	{ID: 3, Kind: "q2", Agg: "count", PaLo: 599, PaHi: 629, PbLo: 25, PbHi: 33, PcLo: 5, PcHi: 9, X: 3, Y: 3},
}

// mixConfig is the store of the benchmark's mix-150 workload: 150
// transactions over 40 items, k-anonymized with k = 4, seed 7.
func mixConfig() Config {
	return Config{NumTransactions: 150, NumItems: 40, Scheme: "k", K: 4, Seed: 7}
}

// mixQ3Spec is a Query-3 spec of the mix-150 list. Its max side proves
// 30 in about a thousand nodes; its min side stops at the 300 000
// node budget with the interval [0, 30], so nearly all of its time is
// propagation-based search.
var mixQ3Spec = Spec{ID: 771, Kind: "q3", Agg: "count", PaLo: 774, PaHi: 999, PbLo: 258, PbHi: 379, X: 3}

var (
	benchEnc    *encode.Encoded
	benchObj    expr.Lin
	benchOut    super.Outcome
	benchReport *explain.Report
)

// BenchmarkEncoderFactory measures one call of the Encoder factory:
// what a query pays for a store to build on.
func BenchmarkEncoderFactory(b *testing.B) {
	newEnc, err := lookupConfig().Encoder()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEnc = newEnc()
	}
}

// BenchmarkFactoryBuild measures a query's store layers up to its
// objective: one factory call plus Spec.Build, for a fixed Query-1
// and a fixed Query-2 spec.
func BenchmarkFactoryBuild(b *testing.B) {
	newEnc, err := lookupConfig().Encoder()
	if err != nil {
		b.Fatal(err)
	}
	for _, sp := range lookupSpecs {
		b.Run(sp.Kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				obj, _, err := sp.Build(newEnc())
				if err != nil {
					b.Fatal(err)
				}
				benchObj = obj
			}
		})
	}
}

// BenchmarkFactorySolve measures a query's solve layer for the specs of
// BenchmarkFactoryBuild; see benchSolve.
func BenchmarkFactorySolve(b *testing.B) {
	newEnc, err := lookupConfig().Encoder()
	if err != nil {
		b.Fatal(err)
	}
	for _, sp := range lookupSpecs {
		b.Run(sp.Kind, func(b *testing.B) {
			benchSolve(b, newEnc, sp, super.Exact)
		})
	}
}

// BenchmarkFactorySolveQ3 is BenchmarkFactorySolve for mixQ3Spec on the
// mix-150 store: a budget-bound search, so it measures the propagation
// kernel's cost per node.
func BenchmarkFactorySolveQ3(b *testing.B) {
	newEnc, err := mixConfig().Encoder()
	if err != nil {
		b.Fatal(err)
	}
	benchSolve(b, newEnc, mixQ3Spec, super.ProvenInterval)
}

// BenchmarkExplainBuild measures building a query's licm-explain/1
// report, which licmd and licmload do for every answer: each spec of
// BenchmarkFactorySolve is solved once with a recorder, outside the
// timer, and explain.Build runs on that record.
func BenchmarkExplainBuild(b *testing.B) {
	newEnc, err := lookupConfig().Encoder()
	if err != nil {
		b.Fatal(err)
	}
	for _, sp := range lookupSpecs {
		b.Run(sp.Kind, func(b *testing.B) {
			enc := newEnc()
			obj, _, err := sp.Build(enc)
			if err != nil {
				b.Fatal(err)
			}
			rec := &solver.ExplainRecorder{}
			opts := benchOptions()
			opts.Explain = rec
			out := super.Bounds(context.Background(), core.BuildProblem(enc.DB, obj), super.Config{Solver: opts})
			if out.Quality != super.Exact {
				b.Fatalf("%s: quality %v, want exact", sp.Name(), out.Quality)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchReport = explain.Build(sp.Name(), rec)
			}
		})
	}
}

// benchOptions are the benchmark workloads' solver options:
// DefaultOptions, a 300 000 node budget, no witness completion.
func benchOptions() solver.Options {
	opts := solver.DefaultOptions()
	opts.MaxNodes = 300_000
	opts.CompleteWitness = false
	return opts
}

// benchSolve times core.BuildProblem plus both supervised solves of sp,
// with benchOptions, and checks the answer's quality. The factory call
// and Spec.Build run with the timer stopped.
func benchSolve(b *testing.B, newEnc func() *encode.Encoded, sp Spec, want super.Quality) {
	opts := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		enc := newEnc()
		obj, _, err := sp.Build(enc)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		benchOut = super.Bounds(context.Background(), core.BuildProblem(enc.DB, obj), super.Config{Solver: opts})
		if benchOut.Quality != want {
			b.Fatalf("%s: quality %v, want %v", sp.Name(), benchOut.Quality, want)
		}
	}
}
