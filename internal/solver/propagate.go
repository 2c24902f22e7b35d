package solver

import "licm/internal/expr"

// toLcon converts a constraint to compact local form: parallel slices
// of variable indices and coefficients, a comparison operator, and a
// right-hand side with the expression's constant folded in.
func toLcon(c expr.Constraint, remap func(expr.Var) int32) ExplainCon {
	terms := c.Lin.Terms()
	l := ExplainCon{
		Vars: make([]int32, len(terms)),
		Coef: make([]int64, len(terms)),
		Op:   c.Op,
		RHS:  c.RHS - c.Lin.Const(),
	}
	for i, t := range terms {
		l.Vars[i] = remap(t.Var)
		l.Coef[i] = t.Coef
	}
	return l
}

// holds evaluates the constraint under a complete assignment.
func (l *ExplainCon) holds(dom []int8) bool {
	var v int64
	for i, x := range l.Vars {
		if dom[x] == 1 {
			v += l.Coef[i]
		}
	}
	switch l.Op {
	case expr.LE:
		return v <= l.RHS
	case expr.GE:
		return v >= l.RHS
	default:
		return v == l.RHS
	}
}

// termRef is one term of the var→term index: the constraint a variable
// appears in, with its coefficient there.
type termRef struct {
	ci   int32
	coef int64
}

// The two sides of a constraint: LE and EQ bound its activity by rhs
// from above (atMost), GE and EQ from below (atLeast).
const (
	atMost  = 0
	atLeast = 1
)

// conRec is one constraint's propagation state, packed into 32 bytes
// so that the tests check runs first read a single cache line. The
// constraint is held as lo <= activity <= hi, and its activity bounds
// relative to those:
//
//	slack[atMost]  = hi - (min activity over current domains)
//	slack[atLeast] = (max activity over current domains) - lo
//
// A side is violated when its slack is negative, and a free term of
// magnitude |coef| is forced when |coef| exceeds that side's slack, so
// maxAbs (the largest |coef| of the constraint) tells in O(1) whether
// any variable could be forced. LE and GE leave one side open; it gets
// a bound that can never bind (see newPropagator), so conflict and
// mayForce need not know the operator.
type conRec struct {
	slack  [2]int64
	maxAbs int64
	free   int32 // number of free variables
	queued bool
}

// shrinks returns the side whose slack fixing a term of coefficient
// coef to val consumes. At the term's larger contribution (coef > 0
// fixed to 1, coef < 0 fixed to 0) the activity's floor rises by
// |coef|, shrinking atMost; at its smaller one the ceiling falls by
// |coef|, shrinking atLeast.
func shrinks(coef int64, val int8) int {
	larger := int(uint64(coef)>>63) ^ int(val)
	return (larger ^ 1) & 1
}

// take accounts for fixing a term of coefficient coef to val.
func (r *conRec) take(coef int64, val int8) {
	r.slack[shrinks(coef, val)] -= abs64(coef)
	r.free--
}

// give reverses take.
func (r *conRec) give(coef int64, val int8) {
	r.slack[shrinks(coef, val)] += abs64(coef)
	r.free++
}

// conflict reports whether the constraint is unsatisfiable under the
// current domains.
func (r *conRec) conflict() bool {
	return min(r.slack[atMost], r.slack[atLeast]) < 0
}

// mayForce reports whether some free variable could be forced: only
// then does check scan the constraint's terms.
func (r *conRec) mayForce() bool {
	return r.free > 0 && min(r.slack[atMost], r.slack[atLeast]) < r.maxAbs
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// propagator performs bound-consistency propagation for integer linear
// constraints over binary variables, with a trail for backtracking.
// Domains are dom[v] = -1 (free), 0, or 1.
//
// Each constraint's activity bounds live in its conRec and are updated
// incrementally as variables are fixed and unfixed, so each fix costs
// O(number of constraint terms touching the variable) instead of
// rescanning whole constraints — essential for the cardinality groups
// produced by heavy generalization, which can span hundreds of
// variables. A constraint is queued only when its record shows that
// check could act on it.
//
// Given a component's objective, the same walks keep the search's node
// bound: cur is the value of the variables fixed to 1 and optExtra the
// sum of positive coefficients of free variables, so cur+optExtra costs
// O(1). Both are functions of dom alone, so searches that share the
// propagator share them.
type propagator struct {
	cons []ExplainCon
	recs []conRec
	// varStart and refs index each variable's terms: those of v are
	// refs[varStart[v]:varStart[v+1]], in constraint order.
	varStart []int32
	refs     []termRef
	dom      []int8
	trail    []int32
	queue    []int32
	// nAssigns counts every assignment ever made (monotonic; undo does
	// not decrement it) — the propagation-work figure reported in
	// Stats.Propagations and the solver.propagations counter.
	nAssigns int64
	// obj is nil when no objective is tracked (presolve, witness
	// completion); cur and optExtra then stay 0.
	obj      []int64
	cur      int64
	optExtra int64
}

func newPropagator(numVars int, cons []ExplainCon, obj []int64) *propagator {
	p := &propagator{
		cons:     cons,
		recs:     make([]conRec, len(cons)),
		varStart: make([]int32, numVars+1),
		dom:      make([]int8, numVars),
		obj:      obj,
	}
	for i := range p.dom {
		p.dom[i] = -1
	}
	for _, o := range obj {
		p.optExtra += max(o, 0)
	}
	// First pass: the records, and each variable's term count.
	for ci := range cons {
		c := &cons[ci]
		r := &p.recs[ci]
		var minAct, maxAct int64
		for ti, v := range c.Vars {
			p.varStart[v]++
			cf := c.Coef[ti]
			if cf > 0 {
				maxAct += cf
			} else {
				minAct += cf
			}
			r.maxAbs = max(r.maxAbs, abs64(cf))
		}
		// An open side is bounded maxAbs beyond anything the activity
		// can reach, so its slack never falls below maxAbs: it never
		// reads as violated or forcing.
		lo, hi := c.RHS, c.RHS
		switch c.Op {
		case expr.LE:
			lo = minAct - r.maxAbs
		case expr.GE:
			hi = maxAct + r.maxAbs
		}
		r.slack = [2]int64{hi - minAct, maxAct - lo}
		r.free = int32(len(c.Vars))
	}
	// Running sums turn the counts into the end of each variable's run;
	// the second pass fills the runs back to front, which leaves
	// varStart[v] at the run's start and each run in constraint order.
	for v := 1; v <= numVars; v++ {
		p.varStart[v] += p.varStart[v-1]
	}
	p.refs = make([]termRef, p.varStart[numVars])
	for ci := len(cons) - 1; ci >= 0; ci-- {
		c := &cons[ci]
		for ti := len(c.Vars) - 1; ti >= 0; ti-- {
			v := c.Vars[ti]
			p.varStart[v]--
			p.refs[p.varStart[v]] = termRef{ci: int32(ci), coef: c.Coef[ti]}
		}
	}
	return p
}

// terms returns the var→term index entries of v.
func (p *propagator) terms(v int32) []termRef {
	return p.refs[p.varStart[v]:p.varStart[v+1]]
}

// mark returns a trail position for later undo.
func (p *propagator) mark() int { return len(p.trail) }

// undo unfixes every variable fixed since the given mark, reversing
// the incremental activity updates.
func (p *propagator) undo(mark int) {
	for i := len(p.trail) - 1; i >= mark; i-- {
		v := p.trail[i]
		val := p.dom[v]
		p.dom[v] = -1
		if p.obj != nil {
			o := p.obj[v]
			p.cur -= o * int64(val)
			p.optExtra += max(o, 0)
		}
		for _, t := range p.terms(v) {
			p.recs[t.ci].give(t.coef, val)
		}
	}
	p.trail = p.trail[:mark]
}

// fix assigns v := val and propagates consequences. It returns false
// on conflict (some constraint became unsatisfiable); the caller must
// undo to a previous mark before continuing.
func (p *propagator) fix(v int32, val int8) bool {
	if d := p.dom[v]; d != -1 {
		return d == val
	}
	p.assign(v, val)
	return p.drain()
}

// propagateAll enqueues every constraint that may act and drains the
// queue; used for root presolve.
func (p *propagator) propagateAll() bool {
	for ci := range p.cons {
		p.enqueue(int32(ci))
	}
	return p.drain()
}

func (p *propagator) assign(v int32, val int8) {
	p.nAssigns++
	p.dom[v] = val
	p.trail = append(p.trail, v)
	if p.obj != nil {
		o := p.obj[v]
		p.cur += o * int64(val)
		p.optExtra -= max(o, 0)
	}
	for _, t := range p.terms(v) {
		p.recs[t.ci].take(t.coef, val)
		p.enqueue(t.ci)
	}
}

// enqueue pushes constraint ci unless it is queued already or its
// record shows that check could neither find a conflict nor force a
// variable.
func (p *propagator) enqueue(ci int32) {
	r := &p.recs[ci]
	if !r.queued && (r.conflict() || r.mayForce()) {
		r.queued = true
		p.queue = append(p.queue, ci)
	}
}

func (p *propagator) drain() bool {
	for len(p.queue) > 0 {
		ci := p.queue[len(p.queue)-1]
		p.queue = p.queue[:len(p.queue)-1]
		p.recs[ci].queued = false
		if !p.check(ci) {
			// Clear the queue so the propagator is reusable after undo.
			for _, c := range p.queue {
				p.recs[c].queued = false
			}
			p.queue = p.queue[:0]
			return false
		}
	}
	return true
}

// check examines constraint ci using its record: detects conflict in
// O(1) and scans for forced variables only when the record shows
// forcing is possible at all.
func (p *propagator) check(ci int32) bool {
	r := &p.recs[ci]
	if r.conflict() {
		return false
	}
	if !r.mayForce() {
		return true
	}
	// The scan compares against the slacks it started from; each fix it
	// makes updates the record, which requeues the constraint if it may
	// act again.
	slack := r.slack
	c := &p.cons[ci]
	for i, v := range c.Vars {
		if p.dom[v] != -1 {
			continue
		}
		cf := c.Coef[i]
		a := abs64(cf)
		if a > slack[atMost] {
			// Its larger contribution would push the activity above rhs.
			if cf > 0 {
				p.assign(v, 0)
			} else {
				p.assign(v, 1)
			}
			continue
		}
		if a > slack[atLeast] {
			// Its smaller one would leave the activity below rhs.
			if cf > 0 {
				p.assign(v, 1)
			} else {
				p.assign(v, 0)
			}
		}
	}
	return true
}

// numFree counts unfixed variables.
func (p *propagator) numFree() int {
	n := 0
	for _, d := range p.dom {
		if d == -1 {
			n++
		}
	}
	return n
}
