package solver

import (
	"math"
	"time"

	"licm/internal/faultinject"
	"licm/internal/simplex"
)

// Component size caps. A component with more than maxLPVars free
// variables or maxLPRows constraints skips LP bounding: the dense
// tableau would be too large, so budgeted DFS searches it instead.
// oversizeNodes is the node budget a non-trivial component gets when
// the caller set no MaxNodes; it keeps worst-case instances anytime
// (reporting proven outer bounds) instead of unbounded.
const (
	maxLPVars           = 600
	maxLPRows           = 1200
	oversizeNodes int64 = 2_000_000
)

// comp is one connected component of the variable/constraint graph,
// with variables renumbered to 0..n-1. It is always solved as a
// maximization.
type comp struct {
	n       int
	cons    []ExplainCon
	obj     []int64 // objective coefficient per local variable
	derived []bool  // nil, or per-variable lineage marker
	prop    *propagator
	opts    Options

	// slot is this component's record on rec: the search publishes its
	// live bound and incumbents there. Heuristic dives share their
	// component's slot; witness completion writes to a record of its
	// own.
	rec  *ExplainRecorder
	slot *ExplainComp

	order []int32 // branching order over local variables

	best         int64
	hasIncumbent bool
	assign       []int8 // best complete assignment
	openBound    int64  // max bound among subtrees abandoned by budget
	hasOpen      bool
	exhausted    bool
	stopAtFirst  bool // heuristic dive: stop at the first feasible leaf
	leanZero     bool // direction dive without positive coefficients: weightless variables take 0 first
	feasOnly     bool // all-zero objective: skip bound bookkeeping
	done         bool

	budget   *int64 // shared node budget; nil means unlimited
	nodes    int64
	lpSolves int64
	lpNs     int64 // wall time inside LP relaxation solves

	// Live instrumentation (nil ctrl = off, the fast path). flushed*
	// remember what has already been pushed into the shared atomics so
	// flushCtrl sends exact deltas; aborted latches a cancellation so
	// the search unwinds without re-polling.
	ctrl         *ctrl
	flushedNodes int64
	flushedLPs   int64
	flushedProps int64
	aborted      bool
	// lastBatch is the wall-clock time of the previous flush, set only
	// when the ctrl records latency histograms (solver.node_ns).
	lastBatch time.Time

	// Adaptive LP control: when relaxation solves stop pruning, the
	// search falls back to plain DFS (the LP is rebuilt from scratch
	// at every node, so a non-pruning relaxation is pure overhead).
	lpPruned   int64
	lpJudged   int64 // LP solves made while an incumbent existed
	lpDisabled bool
	rootLP     int64 // root relaxation bound (valid upper bound)
	hasRootLP  bool
	// valueHint is the root LP's rounded solution, per variable (-1
	// where the LP had no column): the second seed dive and every DFS
	// branch of the search try that value first.
	valueHint []int8
}

// compResult is the outcome of solving one component.
type compResult struct {
	feasible bool
	best     int64
	bound    int64
	proven   bool
	assign   []int8
	nodes    int64
	lpSolves int64
	lpNs     int64
	props    int64
}

// flushCtrl pushes counter deltas since the previous flush into the
// shared ctrl and polls cancellation; it returns false (and latches
// aborted) when the solve should stop. It is the solver's batch
// boundary, so the fault-injection hook lives here: the context's plan
// can panic or latch cancellation at an exact batch index.
func (c *comp) flushCtrl() bool {
	if c.ctrl.faults.Check(faultinject.CtrlBatch) == faultinject.Cancel {
		c.ctrl.forceCancel()
	}
	dn := c.nodes - c.flushedNodes
	dl := c.lpSolves - c.flushedLPs
	dp := c.prop.nAssigns - c.flushedProps
	c.flushedNodes, c.flushedLPs, c.flushedProps = c.nodes, c.lpSolves, c.prop.nAssigns
	if c.ctrl.timingLatencies() {
		now := time.Now()
		if !c.lastBatch.IsZero() {
			c.ctrl.observeNodeBatch(now.Sub(c.lastBatch), dn)
		}
		c.lastBatch = now
	}
	if !c.ctrl.add(dn, dl, dp) {
		c.aborted = true
		return false
	}
	return true
}

// solveComp maximizes slot's objective over slot's matrix, publishing
// the live bound and incumbents onto slot as the search goes.
func solveComp(rec *ExplainRecorder, slot *ExplainComp, derived []bool, opts Options, budget *int64, kc *ctrl) compResult {
	n, cons, obj := slot.Vars, slot.Cons, slot.Obj
	prop := newPropagator(n, cons, obj)
	c := &comp{n: n, cons: cons, obj: obj, derived: derived, prop: prop, opts: opts, budget: budget, ctrl: kc,
		rec: rec, slot: slot}
	if kc.timingLatencies() {
		c.lastBatch = time.Now()
	}
	c.feasOnly = allZero(obj)
	if c.feasOnly {
		c.stopAtFirst = true
	}
	if !prop.drain() {
		if c.ctrl != nil {
			c.flushCtrl()
		}
		return compResult{feasible: false, proven: true, props: prop.nAssigns}
	}
	c.buildOrder()
	nFree := prop.numFree()
	fitsLP := nFree <= maxLPVars && len(cons) <= maxLPRows
	useLP := opts.UseLP && nFree > opts.DFSThreshold && fitsLP
	if budget == nil && nFree > opts.DFSThreshold {
		// No caller budget on a non-trivial component: apply the
		// safety budget so the solve stays anytime (the result is
		// marked unproven if it trips). Without this, a component
		// whose LP bound stops pruning could search forever.
		b := oversizeNodes
		c.budget = &b
	}
	if useLP {
		// The LP is solved only when a dive cannot close the component.
		// The first seed dive leans every variable the objective's way;
		// once its incumbent reaches the root's combinatorial bound (the
		// fixed value plus every positive free coefficient), no
		// relaxation can tighten it and the component is proven.
		_, opt := c.curAndOptimistic()
		c.dive(int64(64*n+2048), nil, !hasPositive(obj))
		if !c.hasIncumbent || c.best < opt {
			c.rootSearch()
		}
	} else {
		c.dfsNode(0)
	}
	if c.exhausted && !c.hasIncumbent {
		// The budget ran out before any feasible leaf was reached. Run
		// a cheap heuristic dive (first feasible leaf, bounded
		// backtracking) so an unproven value can still be reported.
		c.dive(int64(256*n+4096), nil, false)
	}
	if c.ctrl != nil {
		// Final flush: exact totals (including heuristic-dive nodes,
		// which bypass the periodic flush) so live counters end equal
		// to the reported Stats.
		c.flushCtrl()
	}
	res := compResult{
		feasible: c.hasIncumbent,
		best:     c.best,
		assign:   c.assign,
		nodes:    c.nodes,
		lpSolves: c.lpSolves,
		lpNs:     c.lpNs,
		props:    c.prop.nAssigns,
	}
	res.proven = !c.exhausted
	res.bound = c.best
	if c.hasOpen && c.openBound > res.bound {
		res.bound = c.openBound
	}
	if !c.hasIncumbent && c.hasOpen {
		// Budget ran out before any feasible point was found: the only
		// valid bound is the optimistic one.
		res.best = 0
		res.bound = c.openBound
	}
	if c.hasRootLP && c.rootLP < res.bound && res.bound > res.best {
		// The root relaxation is a proven upper bound; use it when it
		// beats the combinatorial bound of abandoned subtrees.
		res.bound = c.rootLP
		if res.bound < res.best {
			res.bound = res.best
		}
	}
	return res
}

// rootSearch is the LP-bounded search of a component the direction
// dive left open. It solves the root relaxation once: its value caps
// the final reported bound, its rounded solution steers a second seed
// dive toward a good incumbent (LP bounds can only prune once an
// incumbent exists, so solving relaxations during an unguided initial
// plunge is pure overhead), and the first LP node reuses it instead of
// solving it again. The relaxation covers the free part only, so
// root-fixed contributions (cur) are folded in; a non-finite objective
// (numerical corruption, exercised by fault injection) is discarded
// rather than trusted as a bound.
func (c *comp) rootSearch() {
	cur, _ := c.curAndOptimistic()
	root := c.solveRelaxation(cur)
	var hint []int8
	if root.status == simplex.Optimal && isFinite(root.sol.Obj) {
		c.rootLP, c.hasRootLP = int64(math.Floor(root.sol.Obj+1e-6)), true
		c.rec.refineUB(c.slot, c.rootLP)
		hint = make([]int8, c.n)
		for i := range hint {
			hint[i] = -1
		}
		for col, v := range root.cols {
			if root.sol.X[col] >= 0.5 {
				hint[v] = 1
			} else {
				hint[v] = 0
			}
		}
	}
	c.dive(int64(64*c.n+2048), hint, false)
	c.valueHint = hint
	if c.hasIncumbent && c.hasRootLP && c.rootLP <= c.best {
		// The incumbent already matches the relaxation bound: optimal.
		c.lpPruned++
		return
	}
	c.lpNode(0, &root)
}

// dive runs a heuristic dive over c's propagator and branching
// order: it stops at the first feasible leaf or after budget nodes,
// which are its own and not charged to c's budget. Its nodes count
// toward c's, and its incumbent replaces c's when better.
func (c *comp) dive(budget int64, hint []int8, leanZero bool) {
	d := &comp{n: c.n, cons: c.cons, obj: c.obj, derived: c.derived, prop: c.prop, opts: c.opts, rec: c.rec, slot: c.slot,
		order: c.order, budget: &budget, stopAtFirst: true, valueHint: hint, leanZero: leanZero}
	d.dfsNode(0)
	if d.hasIncumbent && (!c.hasIncumbent || d.best > c.best) {
		c.best, c.hasIncumbent, c.assign = d.best, true, d.assign
	}
	c.nodes += d.nodes
}

// hasPositive reports whether some objective coefficient is positive.
func hasPositive(obj []int64) bool {
	for _, o := range obj {
		if o > 0 {
			return true
		}
	}
	return false
}

// isFinite reports whether x is a usable objective value: NaN and ±Inf
// must never be floored into an int64 bound (the conversion is
// platform-defined and can silently fabricate a pruning bound).
func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// buildOrder sorts branching candidates: base variables before
// derived lineage variables (whose values propagation determines once
// the base is fixed), then by |objective coefficient| descending.
func (c *comp) buildOrder() {
	c.order = make([]int32, c.n)
	for i := range c.order {
		c.order[i] = int32(i)
	}
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	const baseBoost = int64(1) << 40
	seed := c.opts.OrderSeed
	quickSortByKeyDesc(c.order, func(v int32) int64 {
		k := abs(c.obj[v])
		if seed != 0 {
			// Deterministic perturbation for restart-after-fault: shift
			// the true key up and fill the low byte with a hash of
			// (seed, v), so equal-coefficient ties — the common case —
			// resolve differently per seed while the coefficient
			// ordering itself stays intact and well below baseBoost.
			k = k<<8 | orderJitter(seed, v)
		}
		if c.derived == nil || !c.derived[v] {
			k += baseBoost
		}
		return k
	})
}

// orderJitter hashes (seed, v) to a byte, the tie-break perturbation
// used by buildOrder when Options.OrderSeed is set.
func orderJitter(seed int64, v int32) int64 {
	x := uint64(seed) ^ (uint64(uint32(v))+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x & 0xff)
}

// quickSortByKeyDesc sorts ids by key(id) descending, breaking ties by
// id ascending, using a simple recursive quicksort.
func quickSortByKeyDesc(ids []int32, key func(int32) int64) {
	if len(ids) < 2 {
		return
	}
	pivot := ids[len(ids)/2]
	pk := key(pivot)
	less := func(a int32) bool {
		ka := key(a)
		return ka > pk || (ka == pk && a < pivot)
	}
	i, j := 0, len(ids)-1
	for i <= j {
		for less(ids[i]) {
			i++
		}
		for key(ids[j]) < pk || (key(ids[j]) == pk && ids[j] > pivot) {
			j--
		}
		if i <= j {
			ids[i], ids[j] = ids[j], ids[i]
			i++
			j--
		}
	}
	quickSortByKeyDesc(ids[:j+1], key)
	quickSortByKeyDesc(ids[i:], key)
}

// curAndOptimistic returns the objective value of current fixings and
// the optimistic completion bound (fixed value plus all positive free
// coefficients), from the incrementally-maintained state.
func (c *comp) curAndOptimistic() (cur, opt int64) {
	return c.prop.cur, c.prop.cur + c.prop.optExtra
}

// spendNode consumes one unit of budget; it returns false when the
// budget is exhausted or the solve has been canceled.
func (c *comp) spendNode() bool {
	c.nodes++
	if c.ctrl != nil {
		if c.aborted {
			return false
		}
		if c.nodes-c.flushedNodes >= ctrlGranularity && !c.flushCtrl() {
			return false
		}
	}
	if c.budget == nil {
		return true
	}
	if *c.budget <= 0 {
		return false
	}
	*c.budget--
	return true
}

// abandon records the optimistic bound of a subtree the budget forced
// us to skip.
func (c *comp) abandon(bound int64) {
	c.exhausted = true
	if !c.hasOpen || bound > c.openBound {
		c.openBound = bound
		c.hasOpen = true
	}
}

// recordIncumbent captures the current complete assignment.
func (c *comp) recordIncumbent(val int64) {
	if c.stopAtFirst {
		c.done = true
	}
	if c.hasIncumbent && val <= c.best {
		return
	}
	if c.ctrl != nil {
		c.ctrl.incumbent(val, c.nodes)
	}
	c.best = val
	c.hasIncumbent = true
	if c.assign == nil {
		c.assign = make([]int8, c.n)
	}
	copy(c.assign, c.prop.dom)
	c.rec.observeIncumbent(c.slot, val)
}

// preferredValue picks the branch value to try first: the root LP's
// rounding where there is one, else the objective's sign where the
// variable has weight. A weightless variable takes 1, the
// propagation-friendly direction for LICM constraint families ("at
// least one of", bijection rows, AND-support for lineage) that avoids
// the pathological all-zeros dive on lineage variables — except in the
// direction dive of a component without positive coefficients
// (leanZero), the minimization side of a count or sum. There it takes
// 0: lineage built from selection, projection, join and COUNT >= X is
// monotone in the base variables, so a base variable at 0 never turns a
// result tuple on.
func (c *comp) preferredValue(v int32) int8 {
	if c.valueHint != nil {
		if h := c.valueHint[v]; h >= 0 {
			return h
		}
	}
	switch o := c.obj[v]; {
	case o > 0:
		return 1
	case o < 0 || c.leanZero:
		return 0
	}
	return 1
}

// nextFree returns the first unfixed variable in branching order, or
// -1 when the assignment is complete.
func (c *comp) nextFree() int32 {
	v, _ := c.nextFreeFrom(0)
	return v
}

// nextFreeFrom scans the branching order starting at position pos and
// returns the first unfixed variable and its position (or -1, len).
// Threading the position through the DFS makes the scan amortized
// O(1) along a dive instead of O(n) per node.
func (c *comp) nextFreeFrom(pos int) (int32, int) {
	for ; pos < len(c.order); pos++ {
		if v := c.order[pos]; c.prop.dom[v] == -1 {
			return v, pos
		}
	}
	return -1, pos
}

// allZero reports whether every objective coefficient is zero.
func allZero(obj []int64) bool {
	for _, o := range obj {
		if o != 0 {
			return false
		}
	}
	return true
}

// dfsNode explores the current node with propagation-based DFS.
// Precondition: the propagator is in a consistent (non-conflicting)
// state.
func (c *comp) dfsNode(pos int) {
	if c.done {
		return
	}
	var cur, opt int64
	if !c.feasOnly {
		cur, opt = c.curAndOptimistic()
		if c.hasIncumbent && opt <= c.best {
			return
		}
	}
	if !c.spendNode() {
		c.abandon(opt)
		return
	}
	v, pos := c.nextFreeFrom(pos)
	if v == -1 {
		c.recordIncumbent(cur)
		return
	}
	first := c.preferredValue(v)
	for _, val := range [2]int8{first, 1 - first} {
		m := c.prop.mark()
		if c.prop.fix(v, val) {
			c.dfsNode(pos)
		}
		c.prop.undo(m)
	}
}

// lpNode explores the current node using an LP relaxation bound,
// falling back to plain DFS once few variables remain free. root is
// the relaxation already solved at this node, or nil: only the root
// call passes one.
func (c *comp) lpNode(pos int, root *relaxation) {
	if c.done {
		return
	}
	if c.lpDisabled {
		c.dfsNode(pos)
		return
	}
	cur, opt := c.curAndOptimistic()
	if c.hasIncumbent && opt <= c.best {
		return
	}
	nFree := c.prop.numFree()
	if nFree <= c.opts.DFSThreshold {
		c.dfsNode(pos)
		return
	}
	if !c.spendNode() {
		c.abandon(opt)
		return
	}
	var rx relaxation
	if root != nil {
		rx = *root
	} else {
		rx = c.solveRelaxation(cur)
	}
	sol, cols := rx.sol, rx.cols
	switch rx.status {
	case simplex.Infeasible:
		c.lpPruned++
		return
	case simplex.Optimal:
		// fall through
	default:
		// Numerical trouble: keep searching with the combinatorial
		// bound only.
		c.dfsNode(pos)
		return
	}
	if !isFinite(sol.Obj) {
		// A corrupted objective (NaN/Inf) must not become a bound:
		// flooring it into int64 is platform-defined and could prune
		// the true optimum. Treat it like any other numerical failure.
		c.dfsNode(pos)
		return
	}
	bound := int64(math.Floor(sol.Obj + 1e-6))
	if c.hasIncumbent && bound <= c.best {
		c.lpPruned++
		return
	}
	// Stagnation check: after a warm-up, require the relaxation to
	// prune a reasonable share of the nodes it is solved at; otherwise
	// abandon it for this component. Solves made before the first
	// incumbent exists are not held against it — nothing can prune
	// until there is a bound to prune against.
	if c.hasIncumbent {
		c.lpJudged++
		if c.lpJudged >= 8 && c.lpPruned*4 < c.lpJudged {
			c.lpDisabled = true
			c.dfsNode(pos)
			return
		}
	}
	// Integral LP solution: verify exactly and accept as incumbent.
	if frac := mostFractional(sol.X); frac == -1 {
		m := c.prop.mark()
		ok := true
		for col, v := range cols {
			val := int8(0)
			if sol.X[col] > 0.5 {
				val = 1
			}
			if !c.prop.fix(v, val) {
				ok = false
				break
			}
		}
		if ok && c.nextFree() == -1 {
			c.lpPruned++
			leafCur, _ := c.curAndOptimistic()
			c.recordIncumbent(leafCur)
			c.prop.undo(m)
			return
		}
		if ok {
			// Propagation left untouched variables (constraint-free
			// ones); finish them with DFS.
			c.dfsNode(pos)
			c.prop.undo(m)
			return
		}
		c.prop.undo(m)
		// The rounded point was invalid (numerics); branch normally on
		// the first free variable.
	}
	v, prefer := c.branchVar(sol.X, cols)
	for _, val := range [2]int8{prefer, 1 - prefer} {
		m := c.prop.mark()
		if c.prop.fix(v, val) {
			c.lpNode(pos, nil)
		}
		c.prop.undo(m)
	}
}

// relaxation is a solved LP relaxation: its solution and status, and
// cols, which maps LP column -> local variable.
type relaxation struct {
	sol    simplex.Solution
	status simplex.Status
	cols   []int32
}

// solveRelaxation builds and solves the LP relaxation of the free part
// of the component. The returned objective includes fixedVal, the
// value of already-fixed variables.
func (c *comp) solveRelaxation(fixedVal int64) relaxation {
	c.lpSolves++
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		if c.ctrl.timingLatencies() {
			c.ctrl.observeLP(d)
		}
		c.lpNs += d.Nanoseconds()
	}()
	col := make(map[int32]int, 16)
	var cols []int32
	colOf := func(v int32) int {
		if j, ok := col[v]; ok {
			return j
		}
		j := len(cols)
		col[v] = j
		cols = append(cols, v)
		return j
	}
	type lpRow struct {
		entries []simplex.Entry
		op      simplex.Op
		rhs     float64
	}
	var rows []lpRow
	for i := range c.cons {
		con := &c.cons[i]
		var entries []simplex.Entry
		rhs := float64(con.RHS)
		for k, v := range con.Vars {
			switch c.prop.dom[v] {
			case 1:
				rhs -= float64(con.Coef[k])
			case 0:
				// contributes nothing
			default:
				entries = append(entries, simplex.Entry{Col: -1, Coef: float64(con.Coef[k])})
				// column index resolved below once all frees are known
				entries[len(entries)-1].Col = colOf(v)
			}
		}
		if len(entries) == 0 {
			continue
		}
		rows = append(rows, lpRow{entries, simplex.Op(con.Op), rhs})
	}
	// Free variables with objective weight but no active constraint
	// still need a column so the LP maximizes them.
	for v := int32(0); v < int32(c.n); v++ {
		if c.prop.dom[v] == -1 && c.obj[v] != 0 {
			colOf(v)
		}
	}
	lp := simplex.New(len(cols))
	lp.Faults = c.ctrl.injector()
	for j, v := range cols {
		if c.obj[v] != 0 {
			lp.SetObjective(j, float64(c.obj[v]))
		}
	}
	for _, r := range rows {
		lp.AddRow(r.entries, r.op, r.rhs)
	}
	sol, st := lp.Solve()
	if st == simplex.Optimal {
		sol.Obj += float64(fixedVal)
	}
	return relaxation{sol, st, cols}
}

// mostFractional returns the index of the entry farthest from
// integrality, or -1 when all entries are integral to tolerance.
func mostFractional(x []float64) int {
	best, bestDist := -1, 1e-6
	for j, v := range x {
		f := math.Abs(v - math.Round(v))
		if f > bestDist {
			best, bestDist = j, f
		}
	}
	return best
}

// branchVar selects the branching variable from the LP solution (most
// fractional) and the value to try first (the nearest integer).
func (c *comp) branchVar(x []float64, cols []int32) (int32, int8) {
	if j := mostFractional(x); j != -1 {
		prefer := int8(0)
		if x[j] >= 0.5 {
			prefer = 1
		}
		return cols[j], prefer
	}
	v := c.nextFree()
	return v, c.preferredValue(v)
}
