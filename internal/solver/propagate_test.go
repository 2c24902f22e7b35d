package solver

import (
	"math/rand"
	"testing"

	"licm/internal/expr"
)

func lconsOf(numVars int, cons ...expr.Constraint) []ExplainCon {
	out := make([]ExplainCon, len(cons))
	identity := func(v expr.Var) int32 { return int32(v) }
	for i, c := range cons {
		out[i] = toLcon(c, identity)
	}
	return out
}

func TestToLconFoldsConstant(t *testing.T) {
	c := expr.NewConstraint(expr.Sum(0, 1).AddConst(3), expr.LE, 5)
	l := toLcon(c, func(v expr.Var) int32 { return int32(v) })
	if l.RHS != 2 {
		t.Fatalf("rhs = %d, want 2", l.RHS)
	}
}

func TestFixForcesGroupMember(t *testing.T) {
	// b0 + b1 + b2 >= 1: fixing b0 = b1 = 0 forces b2 = 1.
	cons := lconsOf(3, expr.NewConstraint(expr.Sum(0, 1, 2), expr.GE, 1))
	p := newPropagator(3, cons)
	if !p.fix(0, 0) || !p.fix(1, 0) {
		t.Fatal("unexpected conflict")
	}
	if p.dom[2] != 1 {
		t.Fatalf("b2 = %d, want forced 1", p.dom[2])
	}
}

func TestFixConflict(t *testing.T) {
	cons := lconsOf(2,
		expr.NewConstraint(expr.Sum(0, 1), expr.GE, 1),
		expr.NewConstraint(expr.Sum(0, 1), expr.LE, 1),
	)
	p := newPropagator(2, cons)
	if !p.fix(0, 0) {
		t.Fatal("first fix should succeed")
	}
	// b1 forced to 1 by GE; now contradict it.
	if p.dom[1] != 1 {
		t.Fatalf("b1 = %d, want 1", p.dom[1])
	}
	m := p.mark()
	if p.fix(1, 0) {
		t.Fatal("contradiction not detected")
	}
	p.undo(m)
}

func TestFixAlreadyFixed(t *testing.T) {
	p := newPropagator(1, nil)
	if !p.fix(0, 1) {
		t.Fatal("fix failed")
	}
	if !p.fix(0, 1) {
		t.Fatal("re-fixing to same value should succeed")
	}
	if p.fix(0, 0) {
		t.Fatal("re-fixing to other value should fail")
	}
}

func TestUndoRestoresActivities(t *testing.T) {
	cons := lconsOf(4,
		expr.NewConstraint(expr.Sum(0, 1, 2, 3), expr.GE, 2),
		expr.NewConstraint(expr.NewLin(0,
			expr.Term{Var: 0, Coef: 2}, expr.Term{Var: 1, Coef: -3}), expr.LE, 1),
	)
	p := newPropagator(4, cons)
	min0, max0 := append([]int64(nil), p.minAct...), append([]int64(nil), p.maxAct...)
	free0 := append([]int32(nil), p.free...)
	m := p.mark()
	p.fix(0, 1)
	p.fix(1, 0)
	p.undo(m)
	for ci := range cons {
		if p.minAct[ci] != min0[ci] || p.maxAct[ci] != max0[ci] || p.free[ci] != free0[ci] {
			t.Fatalf("activities not restored for constraint %d", ci)
		}
	}
	for v := 0; v < 4; v++ {
		if p.dom[v] != -1 {
			t.Fatalf("domain %d not restored", v)
		}
	}
}

func TestPropagateAllRootFixes(t *testing.T) {
	// b0 = 1 (EQ with single var) and b0 + b1 <= 1 force b1 = 0.
	cons := lconsOf(2,
		expr.NewConstraint(expr.Sum(0), expr.EQ, 1),
		expr.NewConstraint(expr.Sum(0, 1), expr.LE, 1),
	)
	p := newPropagator(2, cons)
	if !p.propagateAll() {
		t.Fatal("conflict at root")
	}
	if p.dom[0] != 1 || p.dom[1] != 0 {
		t.Fatalf("dom = %v", p.dom[:2])
	}
	if p.numFree() != 0 {
		t.Fatal("all vars should be fixed")
	}
}

func TestNegativeCoefficientForcing(t *testing.T) {
	// b0 - b1 >= 0 with b1 = 1 forces b0 = 1.
	cons := lconsOf(2, expr.NewConstraint(expr.Sum(0).AddTerm(1, -1), expr.GE, 0))
	p := newPropagator(2, cons)
	if !p.fix(1, 1) {
		t.Fatal("conflict")
	}
	if p.dom[0] != 1 {
		t.Fatalf("b0 = %d, want 1", p.dom[0])
	}
	// And b0 = 0 forces b1 = 0 (fresh propagator).
	p = newPropagator(2, cons)
	if !p.fix(0, 0) {
		t.Fatal("conflict")
	}
	if p.dom[1] != 0 {
		t.Fatalf("b1 = %d, want 0", p.dom[1])
	}
}

func TestHolds(t *testing.T) {
	cons := lconsOf(2, expr.NewConstraint(expr.Sum(0, 1), expr.EQ, 1))
	dom := []int8{1, 0}
	if !cons[0].holds(dom) {
		t.Fatal("1+0 = 1 should hold")
	}
	dom = []int8{1, 1}
	if cons[0].holds(dom) {
		t.Fatal("2 = 1 should not hold")
	}
}

// TestQuickIncrementalActivitiesMatchRescan does random fix/undo
// sequences and cross-checks the cached activity bounds against a
// from-scratch recomputation.
func TestQuickIncrementalActivitiesMatchRescan(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		numVars := 2 + r.Intn(8)
		numCons := 1 + r.Intn(5)
		cons := make([]expr.Constraint, numCons)
		for i := range cons {
			cons[i] = randomConstraint(r, numVars)
		}
		p := newPropagator(numVars, lconsOf(numVars, cons...))
		var marks []int
		for step := 0; step < 30; step++ {
			if len(marks) > 0 && r.Intn(3) == 0 {
				i := r.Intn(len(marks))
				p.undo(marks[i])
				marks = marks[:i]
			} else {
				v := int32(r.Intn(numVars))
				if p.dom[v] != -1 {
					continue
				}
				marks = append(marks, p.mark())
				if !p.fix(v, int8(r.Intn(2))) {
					p.undo(marks[len(marks)-1])
					marks = marks[:len(marks)-1]
				}
			}
			// Cross-check cached activities.
			for ci := range p.cons {
				c := &p.cons[ci]
				var wantMin, wantMax int64
				var wantFree int32
				for k, v := range c.Vars {
					switch p.dom[v] {
					case 1:
						wantMin += c.Coef[k]
						wantMax += c.Coef[k]
					case 0:
					default:
						wantFree++
						if c.Coef[k] > 0 {
							wantMax += c.Coef[k]
						} else {
							wantMin += c.Coef[k]
						}
					}
				}
				if p.minAct[ci] != wantMin || p.maxAct[ci] != wantMax || p.free[ci] != wantFree {
					t.Fatalf("trial %d step %d: cached (%d,%d,%d) want (%d,%d,%d)",
						trial, step, p.minAct[ci], p.maxAct[ci], p.free[ci], wantMin, wantMax, wantFree)
				}
			}
		}
	}
}

// TestPropagationSoundness: propagation-forced values appear in every
// brute-force solution extending the fixed prefix.
func TestPropagationSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 200; trial++ {
		numVars := 2 + r.Intn(6)
		numCons := 1 + r.Intn(4)
		cons := make([]expr.Constraint, numCons)
		for i := range cons {
			cons[i] = randomConstraint(r, numVars)
		}
		p := newPropagator(numVars, lconsOf(numVars, cons...))
		v0 := int32(r.Intn(numVars))
		val0 := int8(r.Intn(2))
		okProp := p.propagateAll() && p.fix(v0, val0)
		// Brute force solutions with v0 = val0.
		anySolution := false
		consistentWithProp := false
		for mask := 0; mask < 1<<numVars; mask++ {
			get := func(v expr.Var) bool { return mask&(1<<uint(v)) != 0 }
			if get(expr.Var(v0)) != (val0 == 1) {
				continue
			}
			ok := true
			for _, c := range cons {
				if !c.Holds(get) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			anySolution = true
			match := true
			for v := 0; v < numVars; v++ {
				if d := p.dom[v]; d != -1 && get(expr.Var(v)) != (d == 1) {
					match = false
					break
				}
			}
			if match {
				consistentWithProp = true
			}
		}
		if okProp && anySolution && !consistentWithProp {
			t.Fatalf("trial %d: propagation fixed values excluded every solution", trial)
		}
		if !okProp && anySolution {
			t.Fatalf("trial %d: propagation reported conflict but solutions exist", trial)
		}
	}
}
