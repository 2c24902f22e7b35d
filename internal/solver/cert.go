package solver

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"licm/internal/expr"
	"licm/internal/faultinject"
	"licm/internal/simplex"
)

// This file makes the solver *certifying*: Certify turns the runs an
// ExplainRecorder kept into machine-checkable optimality (or
// infeasibility) proofs, one per proven component — a branch tree over
// the component's 0/1 space whose every leaf is closed by a
// justification an independent checker can replay in exact rational
// arithmetic, with no search of its own:
//
//	dual    a multiplier vector y whose weak-duality box bound is
//	        below the incumbent (the subtree cannot beat it);
//	intopt  an exact feasible 0/1 point plus a dual bound showing the
//	        subtree cannot beat that point by a whole unit;
//	farkas  a multiplier vector proving the subtree's LP is empty.
//
// The proofs are produced by a certification pass over the record
// after the solve, not by mirroring the production search: the search
// prunes via propagation, warm starts and adaptive LP control, none of
// which a checker should have to trust. The pass re-derives the branch
// tree using only checker-replayable closures, extracting candidate
// multipliers from internal/simplex's final tableau (SolveWithDuals)
// and validating every closure in math/big.Rat *before* emission —
// so float noise in the LP can never produce a certificate that a
// sound verifier would reject. If exact validation fails, the pass
// branches deeper instead; if it cannot close the tree within its
// node budget (or discovers the solver's claim is simply wrong), the
// component is recorded as skipped with the reason, never with a
// bogus proof.
//
// Package internal/cert serializes the result as licm-cert/1 JSONL and
// implements the independent verifier. That verifier deliberately
// re-implements the leaf checks rather than importing this file —
// two implementations of the soundness-critical arithmetic mean a
// shared bug cannot silently bless a wrong optimum.

// Leaf kinds of a certificate branch tree.
const (
	CertLeafDual   = "dual"
	CertLeafIntopt = "intopt"
	CertLeafFarkas = "farkas"
)

// Component certification statuses.
const (
	CertOptimal    = "optimal"
	CertInfeasible = "infeasible"
	CertSkipped    = "skipped"
)

// certNodes is the per-component node budget of the certification
// pass; components whose proof does not close within it are recorded
// as skipped.
const certNodes = 200_000

// CertRun is the certificate of one Maximize/Minimize call. Values
// are in the solver's internal maximization frame: Minimize negates
// the objective before solving and negates the result after, so a
// "min" run's Base/Value/component objectives are the negated ones —
// exactly as ExplainRun records them.
type CertRun struct {
	Sense string

	// Base is the objective constant plus the contribution of
	// variables fixed by presolve — the part of the final value no
	// component accounts for. Value is the run's final objective
	// value; when every component certifies optimal,
	// Base + sum(component values) == Value must hold exactly.
	Base  int64
	Value int64

	Proven bool
	// Err is the terminal error text, empty on success. A run that
	// errored (infeasible, budget starvation) makes no value claim.
	Err string

	Comps []CertComp
}

// CertComp is one component's certificate: the projected matrix the
// claim is about (the recorded ExplainComp matrix, so the same
// fingerprint identifies it), the claim, and its proof tree.
type CertComp struct {
	Index int
	Vars  int
	Cons  []ExplainCon
	Obj   []int64

	// Status is CertOptimal, CertInfeasible or CertSkipped. Skip
	// carries the reason when skipped (unproven solve, budget, or a
	// detected solver/certifier disagreement).
	Status string
	Skip   string

	// Value and Witness are the optimality claim (CertOptimal only):
	// Witness is a feasible 0/1 point achieving Value, and Tree
	// proves no point does better.
	Value   int64
	Witness []int8
	Tree    *CertNode
}

// CertNode is a node of the proof tree. Branch nodes have Var >= 0
// and both children; leaves have Var == -1 and a Leaf kind. Y holds
// one exact multiplier per constraint row (nil means all-zero, the
// compact form of purely combinatorial bounds). Bound is the claimed
// weak-duality box bound of dual/intopt leaves; X the feasible point
// of an intopt leaf.
type CertNode struct {
	Var       int32
	Zero, One *CertNode

	Leaf  string
	Y     []*big.Rat
	X     []int8
	Bound *big.Rat
}

// Certify runs the certification pass over every run rec recorded
// and returns one CertRun per recorded run, in order. It reads only
// the record — each component's projected matrix, outcome and witness
// — so it runs after the solve and never changes the search. ctx
// carries the fault injector (faultinject.With) into every
// certification LP; the pass is bounded by its per-component node
// budget, not by ctx's deadline.
func Certify(ctx context.Context, rec *ExplainRecorder) []CertRun {
	faults := faultinject.From(ctx)
	runs := rec.Runs()
	out := make([]CertRun, len(runs))
	for i := range runs {
		run := &runs[i]
		cr := CertRun{
			Sense:  run.Sense,
			Base:   run.Base,
			Value:  run.Value,
			Proven: run.Proven,
			Err:    run.Err,
			Comps:  make([]CertComp, len(run.Components)),
		}
		for j := range run.Components {
			cr.Comps[j] = certifyComp(&run.Components[j], faults)
		}
		out[i] = cr
	}
	return out
}

// certifyComp produces one component's certificate from its record.
func certifyComp(ec *ExplainComp, faults *faultinject.Injector) CertComp {
	cc := CertComp{
		Index: ec.Index,
		Vars:  ec.Vars,
		Cons:  ec.Cons,
		Obj:   ec.Obj,
	}
	if !ec.Proven {
		cc.Status = CertSkipped
		cc.Skip = "solve is unproven (budget or cancellation): no optimality claim to certify"
		return cc
	}
	ct := &certifier{
		n:      ec.Vars,
		cons:   ec.Cons,
		obj:    ec.Obj,
		dec:    make([]int8, ec.Vars),
		budget: certNodes,
		faults: faults,
	}
	for i := range ct.dec {
		ct.dec[i] = -1
	}
	if !ec.Feasible {
		cc.Status = CertInfeasible
		cc.Tree = ct.node()
		if ct.failed != nil {
			return skipFor(cc, ct.failed)
		}
		return cc
	}
	// Optimality claim: validate the witness first — it is the
	// certificate's positive half, and a malformed one means the
	// search recorded something unusable.
	if len(ec.Witness) != ec.Vars {
		return skipFor(cc, fmt.Errorf("witness has %d entries, component has %d variables", len(ec.Witness), ec.Vars))
	}
	for _, v := range ec.Witness {
		if v != 0 && v != 1 {
			return skipFor(cc, fmt.Errorf("witness is not a complete 0/1 point"))
		}
	}
	if val, feas := pointCheck(ec, ec.Witness); !feas {
		return skipFor(cc, fmt.Errorf("recorded witness violates the component constraints"))
	} else if val != ec.Best {
		return skipFor(cc, fmt.Errorf("recorded witness has value %d, solver claimed %d", val, ec.Best))
	}
	cc.Status = CertOptimal
	cc.Value = ec.Best
	cc.Witness = append([]int8(nil), ec.Witness...)
	ct.vstar = ec.Best
	ct.hasVstar = true
	cc.Tree = ct.node()
	if ct.failed != nil {
		return skipFor(cc, ct.failed)
	}
	return cc
}

// skipFor downgrades a certificate to skipped, keeping the matrix so
// the record still identifies which component could not be certified.
func skipFor(cc CertComp, err error) CertComp {
	cc.Status = CertSkipped
	cc.Skip = err.Error()
	cc.Value = 0
	cc.Witness = nil
	cc.Tree = nil
	return cc
}

// pointCheck evaluates a complete 0/1 point against a component:
// its objective value and exact feasibility. Pure int64 arithmetic.
func pointCheck(ec *ExplainComp, x []int8) (val int64, feasible bool) {
	for j, c := range ec.Obj {
		if x[j] == 1 {
			val += c
		}
	}
	for i := range ec.Cons {
		con := &ec.Cons[i]
		var act int64
		for k, v := range con.Vars {
			if x[v] == 1 {
				act += con.Coef[k]
			}
		}
		switch con.Op {
		case expr.LE:
			if act > con.RHS {
				return val, false
			}
		case expr.GE:
			if act < con.RHS {
				return val, false
			}
		default:
			if act != con.RHS {
				return val, false
			}
		}
	}
	return val, true
}

// errCertBudget reports certification-node exhaustion.
var errCertBudget = fmt.Errorf("certification node budget exhausted before the proof tree closed")

// certifier rebuilds a checker-friendly branch tree for one component
// claim. dec is the current decision prefix (-1 free); all closure
// tests are exact.
type certifier struct {
	n    int
	cons []ExplainCon
	obj  []int64

	vstar    int64
	hasVstar bool

	dec    []int8
	budget int64
	failed error
	faults *faultinject.Injector
}

// node certifies the subtree under the current decision prefix.
func (ct *certifier) node() *CertNode {
	if ct.failed != nil {
		return nil
	}
	if ct.budget <= 0 {
		ct.failed = errCertBudget
		return nil
	}
	ct.budget--
	// Combinatorial closure: the box bound of the objective alone
	// cannot beat the incumbent. Emitted as a dual leaf with the
	// all-zero multiplier vector, whose box bound is exactly this.
	if ct.hasVstar {
		if cb := ct.combBound(); cb <= ct.vstar {
			return &CertNode{Var: -1, Leaf: CertLeafDual, Bound: new(big.Rat).SetInt64(cb)}
		}
	}
	// A single interval-violated row refutes the whole box: a Farkas
	// leaf with the row's unit multiplier.
	if i, dir, ok := ct.findViolated(); ok {
		return ct.unitFarkas(i, dir)
	}
	// Forced fix (one-step propagation): some free variable's wrong
	// value interval-violates a row on its own. Branch on it; the
	// wrong side closes with that row's unit Farkas leaf, the right
	// side continues. This keeps proof trees near-linear on the
	// lineage chains propagation handles in the production search.
	if v, val, row, dir, ok := ct.findForced(); ok {
		nd := &CertNode{Var: v}
		ct.dec[v] = 1 - val
		opp := ct.unitFarkas(row, dir)
		ct.dec[v] = val
		same := ct.node()
		ct.dec[v] = -1
		if val == 0 {
			nd.Zero, nd.One = same, opp
		} else {
			nd.Zero, nd.One = opp, same
		}
		if ct.failed != nil {
			return nil
		}
		return nd
	}
	if v := ct.firstFree(); v == -1 {
		// Fully decided with no violated row: an exact feasible point.
		val := ct.decidedValue()
		if !ct.hasVstar {
			ct.failed = fmt.Errorf("solver claimed infeasible, but certification found a feasible point")
			return nil
		}
		if val > ct.vstar {
			ct.failed = fmt.Errorf("certification found a point of value %d, better than the claimed optimum %d", val, ct.vstar)
			return nil
		}
		return &CertNode{
			Var:   -1,
			Leaf:  CertLeafIntopt,
			X:     append([]int8(nil), ct.dec...),
			Bound: new(big.Rat).SetInt64(val),
		}
	}
	leaf, hint := ct.tryLP()
	if ct.failed != nil {
		return nil
	}
	if leaf != nil {
		return leaf
	}
	v := hint
	if v < 0 {
		v = ct.pickBranch()
	}
	nd := &CertNode{Var: v}
	ct.dec[v] = 0
	nd.Zero = ct.node()
	ct.dec[v] = 1
	nd.One = ct.node()
	ct.dec[v] = -1
	if ct.failed != nil {
		return nil
	}
	return nd
}

// combBound is the objective's exact box bound under dec: decided
// contributions plus every positive free coefficient.
func (ct *certifier) combBound() int64 {
	var b int64
	for j, c := range ct.obj {
		switch {
		case ct.dec[j] == 1:
			b += c
		case ct.dec[j] == -1 && c > 0:
			b += c
		}
	}
	return b
}

// decidedValue is the objective value of the (fully decided) prefix.
func (ct *certifier) decidedValue() int64 {
	var v int64
	for j, c := range ct.obj {
		if ct.dec[j] == 1 {
			v += c
		}
	}
	return v
}

// rowRange returns the exact activity interval of row i over the box.
func (ct *certifier) rowRange(i int) (lo, hi int64) {
	con := &ct.cons[i]
	for k, v := range con.Vars {
		c := con.Coef[k]
		switch ct.dec[v] {
		case 1:
			lo += c
			hi += c
		case 0:
			// contributes nothing
		default:
			if c > 0 {
				hi += c
			} else {
				lo += c
			}
		}
	}
	return lo, hi
}

// findViolated looks for a row no point in the box can satisfy. dir
// is +1 when the row's LE side is violated (activity always above an
// upper bound), -1 for the GE side.
func (ct *certifier) findViolated() (row int, dir int, ok bool) {
	for i := range ct.cons {
		lo, hi := ct.rowRange(i)
		op, rhs := ct.cons[i].Op, ct.cons[i].RHS
		if (op == expr.LE || op == expr.EQ) && lo > rhs {
			return i, +1, true
		}
		if (op == expr.GE || op == expr.EQ) && hi < rhs {
			return i, -1, true
		}
	}
	return 0, 0, false
}

// findForced looks for a free variable one of whose values
// single-handedly interval-violates a row; the forced value is the
// other one. dir is the violation direction of the wrong value, as in
// findViolated.
func (ct *certifier) findForced() (v int32, val int8, row int, dir int, ok bool) {
	for i := range ct.cons {
		lo, hi := ct.rowRange(i)
		con := &ct.cons[i]
		upper := con.Op == expr.LE || con.Op == expr.EQ
		lower := con.Op == expr.GE || con.Op == expr.EQ
		for k, u := range con.Vars {
			if ct.dec[u] != -1 {
				continue
			}
			c := con.Coef[k]
			if upper {
				// lo already counts negative c (free var at 1); setting
				// the var to its activity-raising value lifts lo by |c|.
				if c > 0 && lo+c > con.RHS {
					return u, 0, i, +1, true
				}
				if c < 0 && lo-c > con.RHS {
					return u, 1, i, +1, true
				}
			}
			if lower {
				if c > 0 && hi-c < con.RHS {
					return u, 1, i, -1, true
				}
				if c < 0 && hi+c < con.RHS {
					return u, 0, i, -1, true
				}
			}
		}
	}
	return 0, 0, 0, 0, false
}

// unitFarkas builds the Farkas leaf of a single interval-violated
// row: the unit multiplier in the row's violated direction. Exact by
// construction — rowRange already proved min over the box of
// dir*(a_i x) exceeds dir*b_i.
func (ct *certifier) unitFarkas(row, dir int) *CertNode {
	y := make([]*big.Rat, len(ct.cons))
	y[row] = new(big.Rat).SetInt64(int64(dir))
	return &CertNode{Var: -1, Leaf: CertLeafFarkas, Y: y}
}

// firstFree returns a free variable id, or -1 when fully decided.
func (ct *certifier) firstFree() int32 {
	for j, d := range ct.dec {
		if d == -1 {
			return int32(j)
		}
	}
	return -1
}

// pickBranch chooses a deterministic branching variable: the free
// variable with the largest absolute objective weight (ties to the
// lowest id), falling back to the first free one.
func (ct *certifier) pickBranch() int32 {
	best, bestAbs := int32(-1), int64(-1)
	for j, d := range ct.dec {
		if d != -1 {
			continue
		}
		a := ct.obj[j]
		if a < 0 {
			a = -a
		}
		if a > bestAbs {
			best, bestAbs = int32(j), a
		}
	}
	return best
}

// certLPCap bounds the LP size the certification pass will build; at
// this scale the production solver fell back to DFS too, and the
// combinatorial closures must carry the proof.
const certLPCap = 700

// tryLP solves the node's LP relaxation (decided variables pinned via
// bounds) and attempts a leaf from the extracted multipliers, exact-
// checking every candidate before emitting it. When no sound leaf
// materializes it returns a branching hint from the LP point (the
// most fractional column), or -1.
func (ct *certifier) tryLP() (leaf *CertNode, hint int32) {
	hint = -1
	if ct.n > certLPCap || len(ct.cons) > 2*certLPCap {
		return nil, -1
	}
	lp := simplex.New(ct.n)
	lp.Faults = ct.faults
	for j := 0; j < ct.n; j++ {
		if ct.hasVstar && ct.obj[j] != 0 {
			lp.SetObjective(j, float64(ct.obj[j]))
		}
		if d := ct.dec[j]; d >= 0 {
			lp.SetBounds(j, float64(d), float64(d))
		}
	}
	for i := range ct.cons {
		con := &ct.cons[i]
		entries := make([]simplex.Entry, len(con.Vars))
		for k, v := range con.Vars {
			entries[k] = simplex.Entry{Col: int(v), Coef: float64(con.Coef[k])}
		}
		lp.AddRow(entries, simplex.Op(con.Op), float64(con.RHS))
	}
	sol, st, di := lp.SolveWithDuals()
	switch st {
	case simplex.Infeasible:
		// The phase-1 frame's sign convention relative to the row
		// frame is not guaranteed; try both orientations and keep
		// whichever passes the exact check.
		for _, sign := range [2]int64{1, -1} {
			y := ct.ratify(di.Farkas, sign)
			if y != nil && ct.farkasValid(y) {
				return &CertNode{Var: -1, Leaf: CertLeafFarkas, Y: y}, -1
			}
		}
		return nil, -1
	case simplex.Optimal:
		if !ct.hasVstar {
			// Infeasibility certificate wanted but this box has LP
			// points: only deeper Farkas leaves can close it.
			return nil, ct.fracHint(sol.X)
		}
		y := ct.ratify(di.Duals, 1)
		if y == nil {
			return nil, ct.fracHint(sol.X)
		}
		u := ct.dualBound(y)
		if x, ok := roundIntegral(sol.X, ct.dec); ok {
			if val, feas := ct.pointValue(x); feas {
				if val > ct.vstar {
					ct.failed = fmt.Errorf("certification found a point of value %d, better than the claimed optimum %d", val, ct.vstar)
					return nil, -1
				}
				if u.Cmp(new(big.Rat).SetInt64(val+1)) < 0 {
					return &CertNode{Var: -1, Leaf: CertLeafIntopt, Y: y, X: x, Bound: u}, -1
				}
			}
		}
		if u.Cmp(new(big.Rat).SetInt64(ct.vstar+1)) < 0 {
			return &CertNode{Var: -1, Leaf: CertLeafDual, Y: y, Bound: u}, -1
		}
		return nil, ct.fracHint(sol.X)
	default:
		return nil, -1
	}
}

// ratify converts a float multiplier vector into exact rationals,
// scaled by sign and clipped to the sign each row's operator admits
// (clipping can only weaken a valid vector, never unsound-en it).
// Returns nil on any non-finite entry.
func (ct *certifier) ratify(y []float64, sign int64) []*big.Rat {
	if len(y) != len(ct.cons) {
		return nil
	}
	out := make([]*big.Rat, len(y))
	s := new(big.Rat).SetInt64(sign)
	for i, f := range y {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil
		}
		r := new(big.Rat).SetFloat64(f)
		r.Mul(r, s)
		switch ct.cons[i].Op {
		case expr.LE:
			if r.Sign() < 0 {
				r.SetInt64(0)
			}
		case expr.GE:
			if r.Sign() > 0 {
				r.SetInt64(0)
			}
		}
		if r.Sign() != 0 {
			out[i] = r
		}
	}
	return out
}

// dualBound computes the exact weak-duality box bound of a
// sign-correct multiplier vector under the current decisions:
// sum_i y_i b_i + sum_j max over the box of (c_j - sum_i y_i a_ij) x_j.
func (ct *certifier) dualBound(y []*big.Rat) *big.Rat {
	u := new(big.Rat)
	red := make([]*big.Rat, ct.n)
	for j, c := range ct.obj {
		if c != 0 {
			red[j] = new(big.Rat).SetInt64(c)
		}
	}
	tmp := new(big.Rat)
	for i, yi := range y {
		if yi == nil {
			continue
		}
		con := &ct.cons[i]
		u.Add(u, tmp.Mul(yi, new(big.Rat).SetInt64(con.RHS)))
		for k, v := range con.Vars {
			if red[v] == nil {
				red[v] = new(big.Rat)
			}
			red[v].Sub(red[v], new(big.Rat).Mul(yi, new(big.Rat).SetInt64(con.Coef[k])))
		}
	}
	for j, r := range red {
		if r == nil {
			continue
		}
		switch ct.dec[j] {
		case 1:
			u.Add(u, r)
		case 0:
			// x_j = 0 contributes nothing
		default:
			if r.Sign() > 0 {
				u.Add(u, r)
			}
		}
	}
	return u
}

// farkasValid exact-checks a Farkas candidate: min over the box of
// (sum_i y_i a_i)·x must strictly exceed sum_i y_i b_i.
func (ct *certifier) farkasValid(y []*big.Rat) bool {
	agg := make([]*big.Rat, ct.n)
	e := new(big.Rat)
	tmp := new(big.Rat)
	for i, yi := range y {
		if yi == nil {
			continue
		}
		con := &ct.cons[i]
		e.Add(e, tmp.Mul(yi, new(big.Rat).SetInt64(con.RHS)))
		for k, v := range con.Vars {
			if agg[v] == nil {
				agg[v] = new(big.Rat)
			}
			agg[v].Add(agg[v], new(big.Rat).Mul(yi, new(big.Rat).SetInt64(con.Coef[k])))
		}
	}
	minAct := new(big.Rat)
	for j, a := range agg {
		if a == nil {
			continue
		}
		switch ct.dec[j] {
		case 1:
			minAct.Add(minAct, a)
		case 0:
			// contributes nothing
		default:
			if a.Sign() < 0 {
				minAct.Add(minAct, a)
			}
		}
	}
	return minAct.Cmp(e) > 0
}

// pointValue evaluates a complete 0/1 point exactly against the
// component (int64 arithmetic).
func (ct *certifier) pointValue(x []int8) (val int64, feasible bool) {
	ec := ExplainComp{Vars: ct.n, Cons: ct.cons, Obj: ct.obj}
	return pointCheck(&ec, x)
}

// fracHint returns the most fractional LP column as a branching hint,
// or -1 when the point is (near-)integral.
func (ct *certifier) fracHint(x []float64) int32 {
	best, bestDist := -1, 1e-6
	for j, v := range x {
		if f := math.Abs(v - math.Round(v)); f > bestDist {
			best, bestDist = j, f
		}
	}
	return int32(best)
}

// roundIntegral rounds a near-integral LP point to an exact 0/1
// vector consistent with the decisions; ok is false when any entry is
// meaningfully fractional or out of the box.
func roundIntegral(x []float64, dec []int8) ([]int8, bool) {
	out := make([]int8, len(x))
	for j, v := range x {
		r := math.Round(v)
		if math.Abs(v-r) > 1e-6 || !exactlyZeroOrOne(r) {
			return nil, false
		}
		b := int8(r)
		if dec[j] >= 0 && dec[j] != b {
			return nil, false
		}
		out[j] = b
	}
	return out, true
}
