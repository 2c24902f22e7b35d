package workload

import (
	"testing"

	"licm/internal/encode"
	"licm/internal/expr"
)

// lookupConfig is the store of the benchmark's lookup-1k workload:
// 1000 transactions over 200 items, k-anonymized with k = 4, seed 7.
func lookupConfig() Config {
	return Config{NumTransactions: 1000, NumItems: 200, Scheme: "k", K: 4, Seed: 7}
}

var (
	benchEnc *encode.Encoded
	benchObj expr.Lin
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
	for _, sp := range []Spec{
		{ID: 7, Kind: "q1", Agg: "count", PaLo: 842, PaHi: 975, PbLo: 24, PbHi: 31},
		{ID: 3, Kind: "q2", Agg: "count", PaLo: 599, PaHi: 629, PbLo: 25, PbHi: 33, PcLo: 5, PcHi: 9, X: 3, Y: 3},
	} {
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
