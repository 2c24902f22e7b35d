package solver

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"licm/internal/check"
	"licm/internal/expr"
	"licm/internal/obs"
)

// defaultWitnessBudget caps the nodes spent completing a witness over
// pruned (objective-irrelevant) components when Options.WitnessBudget
// is left zero.
const defaultWitnessBudget = 500_000

// solve maximizes p.Objective. Minimization is handled by the caller
// via negation; minimized only labels the trace.
func solve(ctx context.Context, p *Problem, opts Options, minimized bool) (res Result, err error) {
	start := time.Now()
	tr := opts.Trace
	sense := "max"
	if minimized {
		sense = "min"
	}
	root := tr.Start("solver.solve",
		obs.Str("sense", sense),
		obs.Int("vars", p.NumVars),
		obs.Int("cons", len(p.Constraints)))
	// The record is always written; Options.Explain only decides
	// whether the caller keeps it.
	rec := recorderFor(opts)
	run := rec.start(sense)
	// Registered first, so it runs after the stats defer below has
	// filled TotalTime/Canceled/memory into res.Stats.
	defer func() { rec.finish(run, &res, err) }()
	mp := startMemProbe(opts.Metrics != nil || tr.Enabled())
	defer func() {
		res.Stats.TotalTime = time.Since(start)
		mp.stop(&res.Stats)
		if opts.Metrics != nil {
			opts.Metrics.Counter("solver.alloc_bytes").Add(res.Stats.AllocBytes)
			opts.Metrics.Gauge("solver.peak_heap_bytes").Set(res.Stats.PeakHeap)
		}
		// Surface the solve-latency distributions in the trace so
		// post-processors (licmtrace summary) see them without scraping
		// expvar. Values are cumulative over the registry's lifetime —
		// a Bounds call reports totals across both directions.
		if opts.Metrics != nil && tr.Enabled() {
			for _, h := range []string{"solver.lp_ns", "solver.node_ns"} {
				snap := opts.Metrics.Histogram(h).Snapshot()
				if snap.Count == 0 {
					continue
				}
				tr.Event("solver.hist",
					obs.Str("hist", h),
					obs.I64("count", snap.Count),
					obs.I64("sum", snap.Sum),
					obs.F64("mean", snap.Mean),
					obs.I64("p50", snap.Quantile(0.5)),
					obs.I64("p99", snap.Quantile(0.99)))
			}
		}
		root.End(
			obs.Bool("ok", err == nil),
			obs.Bool("proven", res.Proven),
			obs.Bool("canceled", res.Stats.Canceled),
			obs.I64("nodes", res.Stats.Nodes),
			obs.I64("lp_solves", res.Stats.LPSolves),
			obs.I64("propagations", res.Stats.Propagations),
			obs.I64("alloc_bytes", res.Stats.AllocBytes),
			obs.I64("peak_heap", res.Stats.PeakHeap))
	}()

	sp := root.Start("solver.validate")
	err = p.Validate()
	sp.End()
	if err != nil {
		return Result{}, err
	}

	// Opt-in static diagnostics: reject a provably-infeasible store
	// before any search work, with the findings attached to the error.
	if opts.Check {
		sp = root.Start("solver.check")
		rep := p.RunCheck()
		if opts.Metrics != nil {
			opts.Metrics.Counter("check.diags").Add(int64(len(rep.Diags)))
			opts.Metrics.Counter("check.errors").Add(int64(rep.Count(check.SevError)))
		}
		infeasible := rep.ProvenInfeasible()
		sp.End(
			obs.Int("diags", len(rep.Diags)),
			obs.Int("errors", rep.Count(check.SevError)),
			obs.Bool("infeasible", infeasible))
		if infeasible {
			return Result{}, &CheckError{Report: rep}
		}
	}

	kc := newCtrl(ctx, opts)
	res = Result{
		Assignment: make([]uint8, p.NumVars),
		Proven:     true,
		Stats: Stats{
			VarsBefore: p.NumVars,
			ConsBefore: len(p.Constraints),
		},
	}
	defer func() {
		if kc != nil {
			res.Stats.Canceled = kc.isCanceled()
			if res.Stats.Canceled {
				res.Proven = false
			}
		}
	}()

	// Reachability pruning (Section V, "Pruning").
	phaseStart := time.Now()
	sp = root.Start("solver.prune", obs.Bool("enabled", opts.Prune))
	kept := p.Constraints
	var dropped []expr.Constraint
	if opts.Prune {
		pr := Prune(p.NumVars, p.Constraints, p.Objective)
		kept = make([]expr.Constraint, 0, len(pr.KeptConstraints))
		di := 0
		for i, c := range p.Constraints {
			if di < len(pr.KeptConstraints) && pr.KeptConstraints[di] == i {
				kept = append(kept, c)
				di++
			} else {
				dropped = append(dropped, c)
			}
		}
		res.Stats.VarsAfterPrune = pr.NumReachable
		res.Stats.ConsAfterPrune = len(kept)
	} else {
		res.Stats.VarsAfterPrune = p.NumVars
		res.Stats.ConsAfterPrune = len(p.Constraints)
	}
	res.Stats.PruneTime = time.Since(phaseStart)
	sp.End(
		obs.Int("kept_vars", res.Stats.VarsAfterPrune),
		obs.Int("kept_cons", res.Stats.ConsAfterPrune))

	// Root presolve over the kept constraints.
	phaseStart = time.Now()
	sp = root.Start("solver.presolve")
	lcons := make([]ExplainCon, len(kept))
	identity := func(v expr.Var) int32 { return int32(v) }
	for i, c := range kept {
		lcons[i] = toLcon(c, identity)
	}
	prop := newPropagator(p.NumVars, lcons)
	feasible := prop.propagateAll()
	res.Stats.FixedByPresolve = len(prop.trail)
	res.Stats.Propagations = prop.nAssigns
	if kc != nil {
		kc.add(0, 0, prop.nAssigns)
	}
	res.Stats.PresolveTime = time.Since(phaseStart)
	sp.End(obs.Int("fixed", res.Stats.FixedByPresolve), obs.Bool("feasible", feasible))
	if !feasible {
		return Result{}, ErrInfeasible
	}

	// Objective bookkeeping: constant + contribution of fixed
	// variables; remaining terms feed component objectives.
	total := p.Objective.Const()
	objCoef := make(map[expr.Var]int64, p.Objective.Len())
	inObjective := make([]bool, p.NumVars)
	for _, t := range p.Objective.Terms() {
		switch prop.dom[t.Var] {
		case 1:
			total += t.Coef
		case 0:
			// contributes nothing
		default:
			objCoef[t.Var] = t.Coef
			inObjective[t.Var] = true
		}
	}
	for v := 0; v < p.NumVars; v++ {
		if prop.dom[v] == 1 {
			res.Assignment[v] = 1
		}
	}

	// Decompose into connected components over free variables.
	searchStart := time.Now()
	sp = root.Start("solver.decompose", obs.Bool("enabled", opts.Decompose))
	free := make([]bool, p.NumVars)
	for v := 0; v < p.NumVars; v++ {
		free[v] = prop.dom[v] == -1
	}
	comps := decompose(p.NumVars, kept, free, inObjective)
	if !opts.Decompose && len(comps) > 1 {
		// Decomposition ablation: search everything as one component.
		comps = []component{mergeComponents(comps)}
	}
	res.Stats.Components = len(comps)
	sp.End(obs.Int("components", len(comps)))
	if opts.Metrics != nil {
		opts.Metrics.Gauge("solver.components").Set(int64(len(comps)))
	}

	sp = root.Start("solver.search", obs.Int("components", len(comps)))
	endSearch := func() {
		res.Stats.SearchTime = time.Since(searchStart)
		sp.End(
			obs.I64("nodes", res.Stats.Nodes),
			obs.I64("lp_solves", res.Stats.LPSolves),
			obs.Bool("proven", res.Proven))
	}
	// budgetErr distinguishes a deliberate cancellation from genuine
	// budget exhaustion when no feasible point was reached. The
	// component index is folded into the error text so a supervisor
	// (or log reader) can tell which part of the search starved;
	// errors.Is(err, ErrCanceled) still matches through the wrap.
	budgetErr := func(ci int) error {
		if kc.isCanceled() {
			return fmt.Errorf("solver: component %d: %w", ci, ErrCanceled)
		}
		return fmt.Errorf("solver: component %d: node budget exhausted before finding a feasible point", ci)
	}
	var budget *int64
	if opts.MaxNodes > 0 {
		b := opts.MaxNodes
		budget = &b
	}
	bound := total
	// Project every component and register the projections before any
	// search work, so an anytime interval is available from the first
	// moment a fault can strike. The base is everything the components
	// do not account for: the objective constant plus presolve-fixed
	// contributions.
	slots := make([]ExplainComp, len(comps))
	for ci, cm := range comps {
		slots[ci] = project(ci, cm, lcons, objCoef, prop.dom)
	}
	rec.register(run, &res.Stats, total, slots)
	results := solveAll(rec, comps, slots, p.Derived, opts, budget, kc)
	for ci, cr := range results {
		res.Stats.Nodes += cr.nodes
		res.Stats.LPSolves += cr.lpSolves
		res.Stats.Propagations += cr.props
		if !cr.feasible {
			endSearch()
			if !cr.proven {
				return Result{}, budgetErr(ci)
			}
			return Result{}, ErrInfeasible
		}
		total += cr.best
		bound += cr.bound
		if !cr.proven {
			res.Proven = false
		}
		for i, v := range comps[ci].vars {
			if cr.assign[i] == 1 {
				res.Assignment[v] = 1
			}
		}
	}
	res.Value = total
	res.Bound = bound
	endSearch()

	// Complete the witness over pruned components: they cannot change
	// the optimum of a *feasible* problem, but a full world needs
	// values for their variables — and if the pruned part is
	// infeasible, so is the whole problem.
	if opts.CompleteWitness && len(dropped) > 0 {
		phaseStart = time.Now()
		wsp := root.Start("solver.witness", obs.Int("dropped_cons", len(dropped)))
		ok, infeasible := completeWitness(p.NumVars, dropped, res.Assignment, opts)
		res.Stats.WitnessTime = time.Since(phaseStart)
		wsp.End(obs.Bool("complete", ok), obs.Bool("infeasible", infeasible))
		if infeasible {
			return Result{}, ErrInfeasible
		}
		if !ok {
			// Too hard within budget; the bounds stand, but the
			// witness is partial. Record the exhaustion so callers can
			// tell a dropped witness from a problem with none.
			res.Assignment = nil
			res.Stats.WitnessExhausted = true
		}
	}
	return res, nil
}

// solveAll solves every component on its record slot, sequentially or
// with a worker pool when opts.Workers > 1. A panic on any worker is
// captured, remaining components are abandoned, and the first panic is
// re-thrown (as a *CompPanic) once every worker has stopped — so a
// dying component can never strand the pool.
func solveAll(rec *ExplainRecorder, comps []component, slots []ExplainComp, derived []bool, opts Options, budget *int64, kc *ctrl) []compResult {
	results := make([]compResult, len(comps))
	if opts.Workers <= 1 || len(comps) <= 1 {
		for ci, cm := range comps {
			results[ci] = solveOneGuarded(rec, &slots[ci], cm.vars, derived, opts, budget, kc)
		}
		return results
	}
	// Parallel path: split any budget evenly so workers never share
	// mutable state. Work is handed out through an atomic index rather
	// than a feeder channel: a feeder would block forever on a send to
	// a pool whose workers have panicked.
	var perComp int64
	if budget != nil {
		perComp = *budget / int64(len(comps))
		if perComp < 1000 {
			perComp = 1000
		}
	}
	workers := opts.Workers
	if workers > len(comps) {
		workers = len(comps)
	}
	var wg sync.WaitGroup
	var nextIdx atomic.Int64
	var panicked atomic.Bool
	var panicMu sync.Mutex
	var firstPanic *CompPanic
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					cp, ok := r.(*CompPanic)
					if !ok {
						cp = &CompPanic{Component: -1, Value: r, Stack: debug.Stack()}
					}
					panicMu.Lock()
					if firstPanic == nil {
						firstPanic = cp
					}
					panicMu.Unlock()
					panicked.Store(true)
				}
			}()
			for {
				ci := int(nextIdx.Add(1) - 1)
				if ci >= len(comps) || panicked.Load() {
					return
				}
				var b *int64
				if budget != nil {
					local := perComp
					b = &local
				}
				results[ci] = solveOneGuarded(rec, &slots[ci], comps[ci].vars, derived, opts, b, kc)
			}
		}()
	}
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
	return results
}

// solveOne solves the projected component slot (whose variables are
// vars, in local-id order) and records its outcome and solve time on
// it.
func solveOne(rec *ExplainRecorder, slot *ExplainComp, vars []expr.Var, derived []bool, opts Options, budget *int64, kc *ctrl) compResult {
	start := time.Now()
	var der []bool
	if derived != nil {
		der = make([]bool, len(vars))
		for i, v := range vars {
			der[i] = derived[v]
		}
	}
	cr := solveComp(rec, slot, der, opts, budget, kc)
	rec.recordComp(slot, cr, time.Since(start).Nanoseconds())
	return cr
}

// CompPanic wraps a panic raised while solving one component, so a
// recovery boundary (internal/super) can attribute the fault to the
// offending component instead of losing it in a bare panic value. The
// solver itself never recovers panics into errors — it re-panics the
// wrapped value, preserving crash semantics for callers that do not
// install a boundary.
type CompPanic struct {
	// Component is the index of the component whose search panicked
	// (the same index ExplainComp records use).
	Component int
	// Value is the original panic value.
	Value any
	// Stack is the stack captured at the recovery point.
	Stack []byte
}

// Error summarizes the panic; *CompPanic satisfies error so recovery
// boundaries can wrap it uniformly.
func (p *CompPanic) Error() string {
	return fmt.Sprintf("solver: panic in component %d: %v", p.Component, p.Value)
}

// solveOneGuarded is solveOne with panic attribution: any panic below
// it is re-thrown wrapped in a *CompPanic carrying the component index
// (unless it already is one).
func solveOneGuarded(rec *ExplainRecorder, slot *ExplainComp, vars []expr.Var, derived []bool, opts Options, budget *int64, kc *ctrl) compResult {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*CompPanic); ok {
				panic(r)
			}
			panic(&CompPanic{Component: slot.Index, Value: r, Stack: debug.Stack()})
		}
	}()
	return solveOne(rec, slot, vars, derived, opts, budget, kc)
}

// component groups free variables connected through constraints, plus
// the indices of those constraints.
type component struct {
	vars []expr.Var
	cons []int
}

// decompose partitions the free variables into connected components of
// the variable/constraint graph. Free variables that appear in the
// objective but in no constraint become singleton components; free
// variables in neither are omitted entirely.
func decompose(numVars int, cons []expr.Constraint, free, inObjective []bool) []component {
	parent := make([]int32, numVars)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	inCons := make([]bool, numVars)
	for _, c := range cons {
		first := int32(-1)
		for _, t := range c.Lin.Terms() {
			if !free[t.Var] {
				continue
			}
			inCons[t.Var] = true
			if first == -1 {
				first = int32(t.Var)
			} else {
				union(first, int32(t.Var))
			}
		}
	}
	byRoot := make(map[int32]*component)
	ordered := make([]*component, 0, 16)
	compOf := func(root int32) *component {
		if c, ok := byRoot[root]; ok {
			return c
		}
		c := &component{}
		byRoot[root] = c
		ordered = append(ordered, c)
		return c
	}
	for v := 0; v < numVars; v++ {
		if !free[v] {
			continue
		}
		if !inCons[v] && !inObjective[v] {
			continue
		}
		compOf(find(int32(v))).vars = append(compOf(find(int32(v))).vars, expr.Var(v))
	}
	for ci, c := range cons {
		for _, t := range c.Lin.Terms() {
			if free[t.Var] {
				cc := compOf(find(int32(t.Var)))
				cc.cons = append(cc.cons, ci)
				break
			}
		}
	}
	out := make([]component, 0, len(ordered))
	for _, c := range ordered {
		out = append(out, *c)
	}
	return out
}

// mergeComponents joins all components into one (decomposition
// ablation path).
func mergeComponents(comps []component) component {
	var m component
	for _, c := range comps {
		m.vars = append(m.vars, c.vars...)
		m.cons = append(m.cons, c.cons...)
	}
	return m
}

// completeWitness finds feasible values for the variables of the
// pruned constraints and writes them into assign. ok is false when no
// completion was found within budget; infeasible is true when the
// pruned constraints are provably unsatisfiable (making the entire
// problem infeasible).
func completeWitness(numVars int, dropped []expr.Constraint, assign []uint8, opts Options) (ok, infeasible bool) {
	lcons := make([]ExplainCon, len(dropped))
	identity := func(v expr.Var) int32 { return int32(v) }
	for i, c := range dropped {
		lcons[i] = toLcon(c, identity)
	}
	// Witness searches write to a record of their own: their values
	// never move the objective, so they must not reach the run's.
	scratch := &ExplainRecorder{}
	prop := newPropagator(numVars, lcons)
	if !prop.propagateAll() {
		return false, true
	}
	for v := 0; v < numVars; v++ {
		if prop.dom[v] == 1 {
			assign[v] = 1
		}
	}
	// Fast path: one global feasibility dive over the variables of
	// the pruned constraints (and only those — pruning guarantees they
	// are disjoint from the objective's part, whose assignment must
	// not be disturbed). Pruned constraints are the untouched
	// base-uncertainty families plus lineage chains outside the
	// objective, for which a propagation-guided 1-first dive in
	// variable order succeeds essentially linearly.
	{
		inDropped := make([]bool, numVars)
		var order []int32
		for i := range lcons {
			for _, v := range lcons[i].Vars {
				if !inDropped[v] {
					inDropped[v] = true
					order = append(order, v)
				}
			}
		}
		sortInt32s(order)
		b := witnessNodeBudget(opts)
		c := &comp{
			n:           numVars,
			cons:        lcons,
			obj:         make([]int64, numVars),
			prop:        prop,
			opts:        opts,
			rec:         scratch,
			slot:        &ExplainComp{},
			budget:      &b,
			stopAtFirst: true,
			feasOnly:    true,
			order:       order,
		}
		c.dfsNode(0)
		if c.hasIncumbent {
			for _, v := range order {
				if c.assign[v] == 1 {
					assign[v] = 1
				}
			}
			return true, false
		}
		// The dive restored the propagator to its root state on the
		// way out; fall through to the decomposed search.
	}
	// Slow path: decompose and solve the components independently.
	free := make([]bool, numVars)
	for v := 0; v < numVars; v++ {
		free[v] = prop.dom[v] == -1
	}
	noObj := make([]bool, numVars)
	comps := decompose(numVars, dropped, free, noObj)
	wopts := opts
	wopts.UseLP = false
	// Witness work is deliberately not attached to the solve's ctrl:
	// its nodes do not count toward Stats.Nodes, so live counters
	// would drift from the reported totals. Each dive is budgeted, so
	// cancellation latency stays bounded anyway.
	for ci, cm := range comps {
		b := witnessNodeBudget(opts)
		slot := project(ci, cm, lcons, nil, prop.dom)
		cr := solveOne(scratch, &slot, cm.vars, nil, wopts, &b, nil)
		if !cr.feasible {
			return false, cr.proven
		}
		for i, v := range cm.vars {
			if cr.assign[i] == 1 {
				assign[v] = 1
			}
		}
	}
	return true, false
}

// witnessNodeBudget returns the node budget of one witness dive:
// Options.WitnessBudget, or the historical default when unset.
func witnessNodeBudget(opts Options) int64 {
	if opts.WitnessBudget > 0 {
		return opts.WitnessBudget
	}
	return defaultWitnessBudget
}

// sortInt32s sorts ascending, keeping the witness dive deterministic.
func sortInt32s(a []int32) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}
