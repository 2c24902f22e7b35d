package workload

import (
	"context"
	"testing"

	"licm/internal/core"
	"licm/internal/encode"
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

var (
	benchEnc *encode.Encoded
	benchObj expr.Lin
	benchOut super.Outcome
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

// BenchmarkFactorySolve measures a query's solve layer: for the specs
// of BenchmarkFactoryBuild, core.BuildProblem plus both supervised
// solves, with the lookup workloads' solver options (DefaultOptions, a
// 300 000 node budget, no witness completion). The factory call and
// Spec.Build run with the timer stopped.
func BenchmarkFactorySolve(b *testing.B) {
	newEnc, err := lookupConfig().Encoder()
	if err != nil {
		b.Fatal(err)
	}
	opts := solver.DefaultOptions()
	opts.MaxNodes = 300_000
	opts.CompleteWitness = false
	for _, sp := range lookupSpecs {
		b.Run(sp.Kind, func(b *testing.B) {
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
				if benchOut.Quality != super.Exact {
					b.Fatalf("%s: quality %v, want exact", sp.Kind, benchOut.Quality)
				}
			}
		})
	}
}
