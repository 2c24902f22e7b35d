package explain

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"licm/internal/expr"
	"licm/internal/solver"
)

// con is a test shorthand for a projected constraint row.
func con(op expr.Op, rhs int64, terms ...int64) solver.ExplainCon {
	c := solver.ExplainCon{Op: op, RHS: rhs}
	for i := 0; i+1 < len(terms); i += 2 {
		c.Vars = append(c.Vars, int32(terms[i]))
		c.Coef = append(c.Coef, terms[i+1])
	}
	return c
}

// permute renumbers variables by perm (perm[old] = new) and shuffles
// constraint order and within-row term order: a copy of the same
// problem whose recorded matrix differs unless every shuffle is the
// identity.
func permute(nVars int, obj []int64, cons []solver.ExplainCon, perm []int, rng *rand.Rand) (int, []int64, []solver.ExplainCon) {
	newObj := make([]int64, nVars)
	for v := 0; v < nVars; v++ {
		if v < len(obj) {
			newObj[perm[v]] = obj[v]
		}
	}
	newCons := make([]solver.ExplainCon, len(cons))
	for i, c := range cons {
		nc := solver.ExplainCon{Op: c.Op, RHS: c.RHS}
		order := rng.Perm(len(c.Vars))
		for _, k := range order {
			nc.Vars = append(nc.Vars, int32(perm[c.Vars[k]]))
			nc.Coef = append(nc.Coef, c.Coef[k])
		}
		newCons[i] = nc
	}
	rng.Shuffle(len(newCons), func(i, j int) { newCons[i], newCons[j] = newCons[j], newCons[i] })
	return nVars, newObj, newCons
}

// sameMatrix reports whether two recorded components are equal: same
// variable count, objective, and rows in the same order.
func sameMatrix(n1 int, obj1 []int64, cons1 []solver.ExplainCon, n2 int, obj2 []int64, cons2 []solver.ExplainCon) bool {
	if n1 != n2 || !slices.Equal(obj1, obj2) || len(cons1) != len(cons2) {
		return false
	}
	for i := range cons1 {
		a, b := &cons1[i], &cons2[i]
		if a.Op != b.Op || a.RHS != b.RHS || !slices.Equal(a.Vars, b.Vars) || !slices.Equal(a.Coef, b.Coef) {
			return false
		}
	}
	return true
}

// TestFingerprintExactMatrix: the fingerprint names the recorded
// matrix. A copy with equal variables, objective and rows gets the
// same fingerprint; a renumbered or row-reordered copy whose recorded
// matrix differs gets another, as the solver does not reuse an outcome
// across such copies either.
func TestFingerprintExactMatrix(t *testing.T) {
	cases := []struct {
		name  string
		nVars int
		obj   []int64
		cons  []solver.ExplainCon
	}{
		{
			name:  "cardinality pair",
			nVars: 5,
			obj:   []int64{1, 1, 1, 1, 1},
			cons: []solver.ExplainCon{
				con(expr.GE, 1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1),
				con(expr.LE, 3, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1),
			},
		},
		{
			name:  "weighted knapsack",
			nVars: 6,
			obj:   []int64{3, 1, 4, 1, 5, 9},
			cons: []solver.ExplainCon{
				con(expr.LE, 10, 0, 2, 1, 3, 2, 5, 3, 7, 4, 1, 5, 2),
				con(expr.GE, 1, 0, 1, 2, 1, 4, 1),
				con(expr.EQ, 2, 1, 1, 3, 1, 5, 1),
			},
		},
		{
			name:  "asymmetric coefficients",
			nVars: 4,
			obj:   []int64{1, 2, 3, 4},
			cons: []solver.ExplainCon{
				con(expr.LE, 5, 0, 1, 1, 2, 2, 3, 3, 4),
				con(expr.GE, 2, 0, 1, 3, 1),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := Fingerprint(tc.nVars, tc.obj, tc.cons)
			if len(want) != 16 {
				t.Fatalf("fingerprint %q, want 16 hex chars", want)
			}
			cp := make([]solver.ExplainCon, len(tc.cons))
			for i, c := range tc.cons {
				cp[i] = solver.ExplainCon{Op: c.Op, RHS: c.RHS, Vars: slices.Clone(c.Vars), Coef: slices.Clone(c.Coef)}
			}
			if got := Fingerprint(tc.nVars, slices.Clone(tc.obj), cp); got != want {
				t.Fatalf("equal copy: fingerprint %q != %q", got, want)
			}
			rng := rand.New(rand.NewSource(7))
			differed := 0
			for trial := 0; trial < 25; trial++ {
				perm := rng.Perm(tc.nVars)
				n, obj, cons := permute(tc.nVars, tc.obj, tc.cons, perm, rng)
				same := sameMatrix(n, obj, cons, tc.nVars, tc.obj, tc.cons)
				if !same {
					differed++
				}
				if got := Fingerprint(n, obj, cons); (got == want) != same {
					t.Fatalf("trial %d perm %v: fingerprint %q vs %q, recorded matrix equal %v", trial, perm, got, want, same)
				}
			}
			if differed == 0 {
				t.Fatal("no trial changed the recorded matrix")
			}
		})
	}
}

// TestFingerprintDistinguishesStructure: structurally different
// components get different fingerprints — including the cases a lazy
// canonicalization would merge (changed RHS, changed op, changed
// objective, one extra variable).
func TestFingerprintDistinguishesStructure(t *testing.T) {
	base := func() (int, []int64, []solver.ExplainCon) {
		return 4, []int64{1, 1, 2, 2}, []solver.ExplainCon{
			con(expr.LE, 2, 0, 1, 1, 1, 2, 1, 3, 1),
			con(expr.GE, 1, 0, 1, 1, 1),
		}
	}
	ref := Fingerprint(base())
	mutants := map[string]func() (int, []int64, []solver.ExplainCon){
		"rhs changed": func() (int, []int64, []solver.ExplainCon) {
			n, o, c := base()
			c[0].RHS = 3
			return n, o, c
		},
		"op changed": func() (int, []int64, []solver.ExplainCon) {
			n, o, c := base()
			c[1].Op = expr.EQ
			return n, o, c
		},
		"coef changed": func() (int, []int64, []solver.ExplainCon) {
			n, o, c := base()
			c[0].Coef[2] = 2
			return n, o, c
		},
		"objective changed": func() (int, []int64, []solver.ExplainCon) {
			n, o, c := base()
			o[3] = 5
			return n, o, c
		},
		"objective negated (min run)": func() (int, []int64, []solver.ExplainCon) {
			n, o, c := base()
			for i := range o {
				o[i] = -o[i]
			}
			return n, o, c
		},
		"extra variable": func() (int, []int64, []solver.ExplainCon) {
			_, o, c := base()
			return 5, append(o, 1), c
		},
		"extra constraint": func() (int, []int64, []solver.ExplainCon) {
			n, o, c := base()
			return n, o, append(c, con(expr.LE, 1, 2, 1, 3, 1))
		},
	}
	for name, mk := range mutants {
		if got := Fingerprint(mk()); got == ref {
			t.Errorf("%s: fingerprint collides with base (%s)", name, ref)
		}
	}
}

// TestFingerprintNoCollisionsOnCorpus generates a corpus of random
// components and checks no two share a fingerprint.
func TestFingerprintNoCollisionsOnCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seen := map[string]string{}
	for i := 0; i < 300; i++ {
		nVars := 2 + rng.Intn(8)
		obj := make([]int64, nVars)
		for v := range obj {
			obj[v] = int64(rng.Intn(7)) - 2
		}
		nCons := 1 + rng.Intn(4)
		cons := make([]solver.ExplainCon, nCons)
		for j := range cons {
			c := solver.ExplainCon{Op: expr.Op(rng.Intn(3)), RHS: int64(rng.Intn(10))}
			for v := 0; v < nVars; v++ {
				if rng.Intn(2) == 0 {
					c.Vars = append(c.Vars, int32(v))
					c.Coef = append(c.Coef, int64(1+rng.Intn(5)))
				}
			}
			if len(c.Vars) == 0 {
				c.Vars = append(c.Vars, 0)
				c.Coef = append(c.Coef, 1)
			}
			cons[j] = c
		}
		desc := fmt.Sprintf("case %d: vars=%d obj=%v cons=%+v", i, nVars, obj, cons)
		fp := Fingerprint(nVars, obj, cons)
		if prev, ok := seen[fp]; ok {
			// A random corpus can repeat a component; only the count
			// below flags a collision rate.
			t.Logf("shared fingerprint %s:\n  %s\n  %s", fp, prev, desc)
		}
		seen[fp] = desc
	}
	if len(seen) < 290 {
		t.Errorf("only %d distinct fingerprints over 300 random cases — collision rate too high", len(seen))
	}
}

// FuzzFingerprint checks on fuzzer-chosen inputs that the fingerprint
// is deterministic and has the 16-hex form.
func FuzzFingerprint(f *testing.F) {
	f.Add(int64(1), 5, 2)
	f.Add(int64(99), 3, 1)
	f.Add(int64(-7), 8, 4)
	f.Fuzz(func(t *testing.T, seed int64, nVars, nCons int) {
		if nVars < 1 || nVars > 24 || nCons < 0 || nCons > 12 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		obj := make([]int64, nVars)
		for v := range obj {
			obj[v] = int64(rng.Intn(9)) - 4
		}
		cons := make([]solver.ExplainCon, nCons)
		for j := range cons {
			c := solver.ExplainCon{Op: expr.Op(rng.Intn(3)), RHS: int64(rng.Intn(20)) - 5}
			for v := 0; v < nVars; v++ {
				if rng.Intn(3) == 0 {
					c.Vars = append(c.Vars, int32(v))
					c.Coef = append(c.Coef, int64(rng.Intn(11))-5)
				}
			}
			cons[j] = c
		}
		fp := Fingerprint(nVars, obj, cons)
		if len(fp) != 16 {
			t.Fatalf("fingerprint %q, want 16 hex chars", fp)
		}
		if again := Fingerprint(nVars, obj, cons); again != fp {
			t.Fatalf("not deterministic: %s then %s", fp, again)
		}
	})
}

// weightedBlocks builds one k x k permutation block per seed (every
// row and every column picks exactly one cell), block b's cell weights
// drawn from seeds[b]: blocks with equal seeds are equal components.
func weightedBlocks(k int, seeds ...int64) *solver.Problem {
	var cons []expr.Constraint
	obj := expr.Lin{}
	for b, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		idx := func(i, j int) expr.Var { return expr.Var(b*k*k + k*i + j) }
		for i := 0; i < k; i++ {
			var row, col []expr.Var
			for j := 0; j < k; j++ {
				row = append(row, idx(i, j))
				col = append(col, idx(j, i))
				obj = obj.AddTerm(idx(i, j), int64(1+r.Intn(9)))
			}
			cons = append(cons,
				expr.NewConstraint(expr.Sum(row...), expr.EQ, 1),
				expr.NewConstraint(expr.Sum(col...), expr.EQ, 1))
		}
	}
	return &solver.Problem{NumVars: len(seeds) * k * k, Constraints: cons, Objective: obj}
}

// TestFingerprintNamesReuseClasses: across the layers, the report's
// fingerprint is the solver's reuse identity when no derived flags
// are set. Three equal blocks and a distinct one, every search
// proven: each reused component carries the fingerprint of the
// component it repeats, and components the solve searched apart have
// different fingerprints.
func TestFingerprintNamesReuseClasses(t *testing.T) {
	rec := &solver.ExplainRecorder{}
	opts := solver.DefaultOptions()
	opts.Explain = rec
	if _, _, err := solver.Bounds(context.Background(), weightedBlocks(6, 3, 3, 3, 5), opts); err != nil {
		t.Fatal(err)
	}
	rep := Build("blocks", rec)
	for _, run := range rep.Runs {
		comps := run.Components
		if len(comps) != 4 {
			t.Fatalf("%s: %d components, want 4", run.Sense, len(comps))
		}
		searched := map[string]int{}
		for _, c := range comps {
			if c.Reused {
				if _, ok := searched[c.Fingerprint]; !ok {
					t.Errorf("%s: reused component %d has fingerprint %s, which no earlier searched component has", run.Sense, c.Index, c.Fingerprint)
				}
				continue
			}
			if prev, ok := searched[c.Fingerprint]; ok {
				t.Errorf("%s: components %d and %d were searched apart but share fingerprint %s", run.Sense, prev, c.Index, c.Fingerprint)
			}
			searched[c.Fingerprint] = c.Index
		}
		if !comps[1].Reused || !comps[2].Reused || comps[3].Reused || len(searched) != 2 {
			t.Errorf("%s: reused %v %v %v, %d searched classes; want the copies reused and 2 classes",
				run.Sense, comps[1].Reused, comps[2].Reused, comps[3].Reused, len(searched))
		}
	}
}
