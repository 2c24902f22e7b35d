package workload

import (
	"reflect"
	"testing"

	"licm/internal/anon"
	"licm/internal/core"
	"licm/internal/dataset"
	"licm/internal/encode"
	"licm/internal/expr"
	"licm/internal/hierarchy"
	"licm/internal/seedflag"
)

// shapeSpecs holds one fixed spec of each kind/agg shape, with windows
// wide enough that each grows lineage or objective terms on every
// scheme's store in TestEncoderForksMatchFreshEncodings.
var shapeSpecs = []Spec{
	{ID: 1, Kind: "q1", Agg: "count", PaLo: 0, PaHi: 249, PbLo: 10, PbHi: 29},
	{ID: 2, Kind: "q1", Agg: "sum", PaLo: 250, PaHi: 499, PbLo: 5, PbHi: 24},
	{ID: 3, Kind: "q2", Agg: "count", PaLo: 500, PaHi: 749, PbLo: 0, PbHi: 19, PcLo: 20, PcHi: 39, X: 1, Y: 1},
	{ID: 4, Kind: "q3", Agg: "count", PaLo: 0, PaHi: 149, PbLo: 150, PbHi: 299, X: 1},
}

// freshEncoding encodes cfg's store from scratch with the encode
// package: the flat store a fork of the factory's base must match.
func freshEncoding(t *testing.T, cfg Config) *encode.Encoded {
	t.Helper()
	cfg = cfg.Normalized()
	dcfg := dataset.DefaultConfig(cfg.NumTransactions)
	dcfg.NumItems = cfg.NumItems
	dcfg.Seed = seedflag.Derive(cfg.Seed, seedflag.DatasetStream)
	d, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	switch cfg.Scheme {
	case "bipartite":
		bg, err := anon.BipartiteAnonymize(d, cfg.K, cfg.K)
		if err != nil {
			t.Fatal(err)
		}
		return encode.Bipartite(d, bg)
	case "suppress":
		s, err := anon.SuppressAnonymize(d, cfg.K)
		if err != nil {
			t.Fatal(err)
		}
		return encode.Suppressed(s, d.Items)
	}
	h, err := hierarchy.Build(cfg.NumItems, cfg.HierarchyFanout, nil)
	if err != nil {
		t.Fatal(err)
	}
	var g *anon.Generalized
	if cfg.Scheme == "km" {
		g, err = anon.KmAnonymize(d, h, cfg.K, cfg.M)
	} else {
		g, err = anon.KAnonymize(d, h, cfg.K)
	}
	if err != nil {
		t.Fatal(err)
	}
	return encode.Generalized(g, d.Items)
}

// sameStore checks that got holds want's variables and constraints.
func sameStore(t *testing.T, name string, got, want *core.DB) {
	t.Helper()
	if got.NumVars() != want.NumVars() {
		t.Fatalf("%s: %d vars, flat store has %d", name, got.NumVars(), want.NumVars())
	}
	for v := 0; v < want.NumVars(); v++ {
		if g, w := got.Def(expr.Var(v)), want.Def(expr.Var(v)); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Def(b%d) = %+v, flat store has %+v", name, v, g, w)
		}
	}
	if !reflect.DeepEqual(got.Constraints(), want.Constraints()) {
		t.Errorf("%s: constraints differ from the flat store's", name)
	}
}

// TestEncoderForksMatchFreshEncodings pins the factory's forks to the
// flat encodings they replace: building any spec shape on a fork gives
// the variables, definitions, constraints and objective that building
// it on a fresh encoding gives, and no build reaches the shared base.
func TestEncoderForksMatchFreshEncodings(t *testing.T) {
	// k keeps the bipartite joins small and makes suppression hide
	// items on this 60-transaction store.
	for _, sc := range []struct {
		scheme string
		k      int
	}{{"km", 4}, {"k", 4}, {"bipartite", 2}, {"suppress", 12}} {
		t.Run(sc.scheme, func(t *testing.T) {
			cfg := testConfig()
			cfg.NumTransactions = 60
			cfg.Scheme, cfg.K = sc.scheme, sc.k
			newEnc, err := cfg.Encoder()
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range shapeSpecs {
				enc, ref := newEnc(), freshEncoding(t, cfg)
				obj, _, err := sp.Build(enc)
				if err != nil {
					t.Fatalf("%s on a fork: %v", sp.Name(), err)
				}
				refObj, _, err := sp.Build(ref)
				if err != nil {
					t.Fatalf("%s on a fresh encoding: %v", sp.Name(), err)
				}
				sameStore(t, sp.Name(), enc.DB, ref.DB)
				if !reflect.DeepEqual(obj, refObj) {
					t.Errorf("%s: objective %v, fresh encoding gives %v", sp.Name(), obj, refObj)
				}
			}
			base, ref := newEnc(), freshEncoding(t, cfg)
			sameStore(t, "base after every build", base.DB, ref.DB)
			base.DB, ref.DB = nil, nil
			if !reflect.DeepEqual(base, ref) {
				t.Error("base relations or groups differ from a fresh encoding's after every build")
			}
		})
	}
}
