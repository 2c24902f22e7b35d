package solver

import (
	"math/rand"
	"testing"
	"unsafe"

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
	p := newPropagator(3, cons, nil)
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
	p := newPropagator(2, cons, nil)
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
	p := newPropagator(1, nil, nil)
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
	p := newPropagator(4, cons, nil)
	recs0 := append([]conRec(nil), p.recs...)
	m := p.mark()
	p.fix(0, 1)
	p.fix(1, 0)
	p.undo(m)
	for ci := range cons {
		min0, max0, free0 := recActivity(&cons[ci], &recs0[ci])
		if minAct, maxAct, free := recActivity(&cons[ci], &p.recs[ci]); minAct != min0 || maxAct != max0 || free != free0 {
			t.Fatalf("activities not restored for constraint %d", ci)
		}
		if p.recs[ci] != recs0[ci] {
			t.Fatalf("record %d = %+v after undo, want %+v", ci, p.recs[ci], recs0[ci])
		}
	}
	for v := 0; v < 4; v++ {
		if p.dom[v] != -1 {
			t.Fatalf("domain %d not restored", v)
		}
	}
}

// recActivity reads a constraint's min and max activity and free count
// back out of its record, given the bounds lo <= activity <= hi that
// newPropagator gives the constraint.
func recActivity(c *ExplainCon, r *conRec) (minAct, maxAct int64, free int32) {
	var reachLo, reachHi int64 // activity's reach with every variable free
	for _, cf := range c.Coef {
		if cf > 0 {
			reachHi += cf
		} else {
			reachLo += cf
		}
	}
	lo, hi := c.RHS, c.RHS
	switch c.Op {
	case expr.LE:
		lo = reachLo - r.maxAbs
	case expr.GE:
		hi = reachHi + r.maxAbs
	}
	return hi - r.slack[atMost], lo + r.slack[atLeast], r.free
}

// TestConRecFitsHalfALine pins the record at 32 bytes, half a 64-byte
// cache line.
func TestConRecFitsHalfALine(t *testing.T) {
	if n := unsafe.Sizeof(conRec{}); n != 32 {
		t.Fatalf("conRec is %d bytes, want 32", n)
	}
}

// TestVarTermIndexOrder checks the flat var→term index against the
// constraints: each variable's terms in constraint order, then term
// order, each with its coefficient.
func TestVarTermIndexOrder(t *testing.T) {
	cons := lconsOf(4,
		expr.NewConstraint(expr.NewLin(0, expr.Term{Var: 2, Coef: 3}, expr.Term{Var: 0, Coef: -1}), expr.LE, 1),
		expr.NewConstraint(expr.Sum(0, 1, 2), expr.GE, 1),
		expr.NewConstraint(expr.NewLin(0, expr.Term{Var: 2, Coef: -2}), expr.EQ, 0),
	)
	p := newPropagator(4, cons, nil)
	want := make([][]termRef, 4)
	for ci, c := range cons {
		for ti, v := range c.Vars {
			want[v] = append(want[v], termRef{ci: int32(ci), coef: c.Coef[ti]})
		}
	}
	for v := int32(0); v < 4; v++ {
		got := p.terms(v)
		if len(got) != len(want[v]) {
			t.Fatalf("var %d: %d terms, want %d", v, len(got), len(want[v]))
		}
		for i := range got {
			if got[i] != want[v][i] {
				t.Fatalf("var %d term %d = %+v, want %+v", v, i, got[i], want[v][i])
			}
		}
	}
}

func TestPropagateAllRootFixes(t *testing.T) {
	// b0 = 1 (EQ with single var) and b0 + b1 <= 1 force b1 = 0.
	cons := lconsOf(2,
		expr.NewConstraint(expr.Sum(0), expr.EQ, 1),
		expr.NewConstraint(expr.Sum(0, 1), expr.LE, 1),
	)
	p := newPropagator(2, cons, nil)
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
	p := newPropagator(2, cons, nil)
	if !p.fix(1, 1) {
		t.Fatal("conflict")
	}
	if p.dom[0] != 1 {
		t.Fatalf("b0 = %d, want 1", p.dom[0])
	}
	// And b0 = 0 forces b1 = 0 (fresh propagator).
	p = newPropagator(2, cons, nil)
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
// sequences and cross-checks the activity bounds cached in each
// record against a from-scratch recomputation.
func TestQuickIncrementalActivitiesMatchRescan(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		numVars := 2 + r.Intn(8)
		numCons := 1 + r.Intn(5)
		cons := make([]expr.Constraint, numCons)
		for i := range cons {
			cons[i] = randomConstraint(r, numVars)
		}
		p := newPropagator(numVars, lconsOf(numVars, cons...), nil)
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
				minAct, maxAct, free := recActivity(c, &p.recs[ci])
				if minAct != wantMin || maxAct != wantMax || free != wantFree {
					t.Fatalf("trial %d step %d: cached (%d,%d,%d) want (%d,%d,%d)",
						trial, step, minAct, maxAct, free, wantMin, wantMax, wantFree)
				}
			}
		}
	}
}

// TestObjectiveTrackingMatchesRescan does random fix/undo sequences
// on a propagator given an objective and cross-checks its cur and
// optExtra against a rescan of the domains, also right after a
// conflict, when the trail still holds the partial fixes.
func TestObjectiveTrackingMatchesRescan(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		numVars := 2 + r.Intn(8)
		cons := make([]expr.Constraint, 1+r.Intn(5))
		for i := range cons {
			cons[i] = randomConstraint(r, numVars)
		}
		obj := make([]int64, numVars)
		for v := range obj {
			obj[v] = int64(r.Intn(9) - 4)
		}
		p := newPropagator(numVars, lconsOf(numVars, cons...), obj)
		check := func(step int) {
			var cur, optExtra int64
			for v, d := range p.dom {
				switch d {
				case 1:
					cur += obj[v]
				case -1:
					optExtra += max(obj[v], 0)
				}
			}
			if p.cur != cur || p.optExtra != optExtra {
				t.Fatalf("trial %d step %d: tracked (cur %d, optExtra %d), rescan (%d, %d)",
					trial, step, p.cur, p.optExtra, cur, optExtra)
			}
		}
		check(-1)
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
					check(step)
					p.undo(marks[len(marks)-1])
					marks = marks[:len(marks)-1]
				}
			}
			check(step)
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
		p := newPropagator(numVars, lconsOf(numVars, cons...), nil)
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

// TestPropagationReachesFixpoint does random fix/undo sequences and
// checks, by a naive rescan after every step, that propagation stops
// only at a fixpoint: unless fix reported a conflict, no constraint is
// violated and no constraint forces a free variable. No record may be
// left queued, after a conflict too. This guards the queue rule, which
// leaves out constraints whose record shows check cannot act on them.
func TestPropagationReachesFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	conflicts, forced := 0, 0
	for trial := 0; trial < 300; trial++ {
		numVars := 2 + r.Intn(12)
		p := newPropagator(numVars, lconsOf(numVars, plantedConstraints(r, numVars, 1+r.Intn(8))...), nil)
		if !p.propagateAll() {
			t.Fatalf("trial %d: conflict at the root of a satisfiable system", trial)
		}
		assertFixpoint(t, p, trial, -1)
		var marks []int
		for step := 0; step < 40; step++ {
			if len(marks) > 0 && r.Intn(3) == 0 {
				i := r.Intn(len(marks))
				p.undo(marks[i])
				marks = marks[:i]
			} else {
				v := int32(r.Intn(numVars))
				if p.dom[v] != -1 {
					continue
				}
				m := p.mark()
				if !p.fix(v, int8(r.Intn(2))) {
					conflicts++
					assertNoneQueued(t, p, trial, step)
					p.undo(m)
				} else {
					forced += p.mark() - m - 1
					marks = append(marks, m)
				}
			}
			assertFixpoint(t, p, trial, step)
		}
	}
	t.Logf("%d conflicts, %d forced fixes", conflicts, forced)
	if conflicts == 0 || forced == 0 {
		t.Fatalf("%d conflicts and %d forced fixes: the sequences miss a path", conflicts, forced)
	}
}

// plantedConstraints draws numCons constraints of 2-5 terms, with
// coefficients in [-3,3] \ {0}, that a hidden random assignment
// satisfies with a slack of at most 1, so that fixes force variables
// and fixes against the hidden assignment often end in conflict.
func plantedConstraints(r *rand.Rand, numVars, numCons int) []expr.Constraint {
	hidden := make([]bool, numVars)
	for v := range hidden {
		hidden[v] = r.Intn(2) == 1
	}
	cons := make([]expr.Constraint, numCons)
	for i := range cons {
		n := 2 + r.Intn(4)
		terms := make([]expr.Term, n)
		for k := range terms {
			cf := int64(1 + r.Intn(3))
			if r.Intn(2) == 0 {
				cf = -cf
			}
			terms[k] = expr.Term{Var: expr.Var(r.Intn(numVars)), Coef: cf}
		}
		lin := expr.NewLin(0, terms...)
		var act int64
		for _, t := range lin.Terms() {
			if hidden[t.Var] {
				act += t.Coef
			}
		}
		switch r.Intn(3) {
		case 0:
			cons[i] = expr.NewConstraint(lin, expr.LE, act+int64(r.Intn(2)))
		case 1:
			cons[i] = expr.NewConstraint(lin, expr.GE, act-int64(r.Intn(2)))
		default:
			cons[i] = expr.NewConstraint(lin, expr.EQ, act)
		}
	}
	return cons
}

// assertFixpoint rescans every constraint from the domains alone.
func assertFixpoint(t *testing.T, p *propagator, trial, step int) {
	t.Helper()
	assertNoneQueued(t, p, trial, step)
	for ci := range p.cons {
		c := &p.cons[ci]
		var minAct, maxAct int64
		for k, v := range c.Vars {
			cf := c.Coef[k]
			switch {
			case p.dom[v] == 1:
				minAct += cf
				maxAct += cf
			case p.dom[v] == -1 && cf > 0:
				maxAct += cf
			case p.dom[v] == -1:
				minAct += cf
			}
		}
		le := c.Op == expr.LE || c.Op == expr.EQ
		ge := c.Op == expr.GE || c.Op == expr.EQ
		if le && minAct > c.RHS || ge && maxAct < c.RHS {
			t.Fatalf("trial %d step %d: constraint %d violated (activity [%d,%d], rhs %d) without a reported conflict",
				trial, step, ci, minAct, maxAct, c.RHS)
		}
		for k, v := range c.Vars {
			if p.dom[v] != -1 {
				continue
			}
			a := c.Coef[k]
			if a < 0 {
				a = -a
			}
			if le && minAct+a > c.RHS || ge && maxAct-a < c.RHS {
				t.Fatalf("trial %d step %d: constraint %d forces free variable %d, but propagation stopped",
					trial, step, ci, v)
			}
		}
	}
}

func assertNoneQueued(t *testing.T, p *propagator, trial, step int) {
	t.Helper()
	if len(p.queue) != 0 {
		t.Fatalf("trial %d step %d: %d constraints left on the queue", trial, step, len(p.queue))
	}
	for ci := range p.recs {
		if p.recs[ci].queued {
			t.Fatalf("trial %d step %d: record %d left marked queued", trial, step, ci)
		}
	}
}
