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

// varRef locates one term of one constraint.
type varRef struct {
	ci int32 // constraint index
	ti int32 // term index within the constraint
}

// propagator performs bound-consistency propagation for integer linear
// constraints over binary variables, with a trail for backtracking.
// Domains are dom[v] = -1 (free), 0, or 1.
//
// Activity bounds (minAct/maxAct) are maintained incrementally as
// variables are fixed and unfixed, so each fix costs O(number of
// constraint terms touching the variable) instead of rescanning whole
// constraints — essential for the cardinality groups produced by
// heavy generalization, which can span hundreds of variables.
type propagator struct {
	cons    []ExplainCon
	varCons [][]varRef // variable -> terms containing it
	dom     []int8
	trail   []int32
	queue   []int32
	inQueue []bool
	minAct  []int64 // per constraint, min activity over current domains
	maxAct  []int64 // per constraint, max activity over current domains
	free    []int32 // per constraint, number of free variables
	maxPos  []int64 // per constraint, largest positive coefficient
	maxNeg  []int64 // per constraint, largest |negative| coefficient
	// nAssigns counts every assignment ever made (monotonic; undo does
	// not decrement it) — the propagation-work figure reported in
	// Stats.Propagations and the solver.propagations counter.
	nAssigns int64
}

func newPropagator(numVars int, cons []ExplainCon) *propagator {
	p := &propagator{
		cons:    cons,
		varCons: make([][]varRef, numVars),
		dom:     make([]int8, numVars),
		inQueue: make([]bool, len(cons)),
		minAct:  make([]int64, len(cons)),
		maxAct:  make([]int64, len(cons)),
		free:    make([]int32, len(cons)),
		maxPos:  make([]int64, len(cons)),
		maxNeg:  make([]int64, len(cons)),
	}
	for i := range p.dom {
		p.dom[i] = -1
	}
	for ci := range cons {
		c := &cons[ci]
		for ti, v := range c.Vars {
			p.varCons[v] = append(p.varCons[v], varRef{ci: int32(ci), ti: int32(ti)})
			cf := c.Coef[ti]
			if cf > 0 {
				p.maxAct[ci] += cf
				if cf > p.maxPos[ci] {
					p.maxPos[ci] = cf
				}
			} else {
				p.minAct[ci] += cf
				if -cf > p.maxNeg[ci] {
					p.maxNeg[ci] = -cf
				}
			}
		}
		p.free[ci] = int32(len(c.Vars))
	}
	return p
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
		for _, r := range p.varCons[v] {
			cf := p.cons[r.ci].Coef[r.ti]
			p.unapply(r.ci, cf, val)
		}
	}
	p.trail = p.trail[:mark]
}

// apply updates constraint ci's activity bounds for fixing a variable
// with coefficient cf to val.
func (p *propagator) apply(ci int32, cf int64, val int8) {
	if cf > 0 {
		if val == 1 {
			p.minAct[ci] += cf
		} else {
			p.maxAct[ci] -= cf
		}
	} else {
		if val == 1 {
			p.maxAct[ci] += cf
		} else {
			p.minAct[ci] -= cf
		}
	}
	p.free[ci]--
}

// unapply reverses apply.
func (p *propagator) unapply(ci int32, cf int64, val int8) {
	if cf > 0 {
		if val == 1 {
			p.minAct[ci] -= cf
		} else {
			p.maxAct[ci] += cf
		}
	} else {
		if val == 1 {
			p.maxAct[ci] -= cf
		} else {
			p.minAct[ci] += cf
		}
	}
	p.free[ci]++
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

// propagateAll enqueues every constraint and drains the queue; used
// for root presolve.
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
	for _, r := range p.varCons[v] {
		cf := p.cons[r.ci].Coef[r.ti]
		p.apply(r.ci, cf, val)
		p.enqueue(r.ci)
	}
}

func (p *propagator) enqueue(ci int32) {
	if !p.inQueue[ci] {
		p.inQueue[ci] = true
		p.queue = append(p.queue, ci)
	}
}

func (p *propagator) drain() bool {
	for len(p.queue) > 0 {
		ci := p.queue[len(p.queue)-1]
		p.queue = p.queue[:len(p.queue)-1]
		p.inQueue[ci] = false
		if !p.check(ci) {
			// Clear the queue so the propagator is reusable after undo.
			for _, c := range p.queue {
				p.inQueue[c] = false
			}
			p.queue = p.queue[:0]
			return false
		}
	}
	return true
}

// check examines constraint ci using the cached activity bounds:
// detects conflict in O(1) and scans for forced variables only when
// the bounds show forcing is possible at all.
func (p *propagator) check(ci int32) bool {
	c := &p.cons[ci]
	minAct, maxAct := p.minAct[ci], p.maxAct[ci]
	needLE := c.Op == expr.LE || c.Op == expr.EQ
	needGE := c.Op == expr.GE || c.Op == expr.EQ
	if needLE && minAct > c.RHS {
		return false
	}
	if needGE && maxAct < c.RHS {
		return false
	}
	if p.free[ci] == 0 {
		return true
	}
	// Forcing is only possible when some coefficient could push the
	// activity past the bound; these O(1) tests skip the scan in the
	// common satisfied case.
	scanLE := needLE && (minAct+p.maxPos[ci] > c.RHS || minAct+p.maxNeg[ci] > c.RHS)
	scanGE := needGE && (maxAct-p.maxPos[ci] < c.RHS || maxAct-p.maxNeg[ci] < c.RHS)
	if !scanLE && !scanGE {
		return true
	}
	for i, v := range c.Vars {
		if p.dom[v] != -1 {
			continue
		}
		cf := c.Coef[i]
		if scanLE {
			if cf > 0 && minAct+cf > c.RHS {
				p.assign(v, 0)
				continue
			}
			if cf < 0 && minAct-cf > c.RHS {
				p.assign(v, 1)
				continue
			}
		}
		if scanGE {
			if cf > 0 && maxAct-cf < c.RHS {
				p.assign(v, 1)
				continue
			}
			if cf < 0 && maxAct+cf < c.RHS {
				p.assign(v, 0)
				continue
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
