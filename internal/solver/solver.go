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
	rec := opts.Explain
	runIdx := -1
	if rec != nil {
		runIdx = rec.start(sense)
		// Registered first, so it runs after the stats defer below has
		// filled TotalTime/Canceled/memory into res.Stats.
		defer func() { rec.finish(runIdx, &res, err) }()
	}
	crec := opts.Certify
	certIdx := -1
	if crec != nil {
		certIdx = crec.start(sense)
		defer func() { crec.finish(certIdx, &res, err) }()
	}
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
	lcons := make([]lcon, len(kept))
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
	if rec != nil {
		rec.setPrune(runIdx, &res.Stats)
	}

	// Register the snapshot board before any search work, so an
	// anytime interval is available from the first moment a fault can
	// strike: base is the constant-plus-presolve value, each
	// component's initial bound the sum of its positive coefficients.
	if opts.Snapshots != nil {
		ubs := make([]int64, len(comps))
		for ci, cm := range comps {
			for _, v := range cm.vars {
				if c := objCoef[v]; c > 0 {
					ubs[ci] += c
				}
			}
		}
		opts.Snapshots.register(total, ubs)
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
	if crec != nil {
		// Base is everything the components do not account for: the
		// objective constant plus presolve-fixed contributions. The
		// verifier checks Base + sum(component values) == Value.
		crec.setBase(certIdx, total)
	}
	// The projected matrices are shared by explain (fingerprints) and
	// certification (proof trees).
	var ecomps []ExplainComp
	if rec != nil || crec != nil {
		ecomps = buildExplainComps(comps, lcons, objCoef, prop.dom)
	}
	if rec != nil {
		rec.registerComponents(runIdx, ecomps)
	}
	results := solveAll(comps, lcons, objCoef, prop.dom, p.Derived, opts, budget, kc, rec, runIdx)
	if crec != nil {
		// Certification is a post-search pass over the projected
		// matrices and outcomes: it never touches live search state,
		// so a certifying solve explores exactly the same tree.
		crec.certify(certIdx, ecomps, results, kc.injector())
	}
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

// solveAll solves every component, sequentially or with a worker pool
// when opts.Workers > 1. A panic on any worker is captured, remaining
// components are abandoned, and the first panic is re-thrown (as a
// *CompPanic) once every worker has stopped — so a dying component can
// never strand the pool.
func solveAll(comps []component, lcons []lcon, objCoef map[expr.Var]int64, globalDom []int8, derived []bool, opts Options, budget *int64, kc *ctrl, rec *ExplainRecorder, runIdx int) []compResult {
	results := make([]compResult, len(comps))
	if opts.Workers <= 1 || len(comps) <= 1 {
		for ci, cm := range comps {
			t0 := explainTimer(rec)
			results[ci] = solveOneGuarded(ci, cm, lcons, objCoef, globalDom, derived, opts, budget, kc)
			if rec != nil {
				rec.recordComp(runIdx, ci, results[ci], time.Since(t0).Nanoseconds())
			}
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
				t0 := explainTimer(rec)
				results[ci] = solveOneGuarded(ci, comps[ci], lcons, objCoef, globalDom, derived, opts, b, kc)
				if rec != nil {
					rec.recordComp(runIdx, ci, results[ci], time.Since(t0).Nanoseconds())
				}
			}
		}()
	}
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
	return results
}

// solveOne extracts and solves a single component. ci is the
// component's slot on the solve's SnapshotBoard (-1 when the work is
// not board-tracked, e.g. witness completion).
func solveOne(ci int, cm component, lcons []lcon, objCoef map[expr.Var]int64, globalDom []int8, derived []bool, opts Options, budget *int64, kc *ctrl) compResult {
	n := len(cm.vars)
	local := make(map[expr.Var]int32, n)
	for i, v := range cm.vars {
		local[v] = int32(i)
	}
	// Fold globally-fixed variables out of the component's constraints.
	cons := make([]lcon, 0, len(cm.cons))
	for _, ci := range cm.cons {
		src := &lcons[ci]
		lc := lcon{op: src.op, rhs: src.rhs}
		for k, v := range src.vars {
			switch globalDom[v] {
			case 1:
				lc.rhs -= src.coef[k]
			case 0:
				// drop
			default:
				lc.vars = append(lc.vars, local[expr.Var(v)])
				lc.coef = append(lc.coef, src.coef[k])
			}
		}
		cons = append(cons, lc)
	}
	obj := make([]int64, n)
	for i, v := range cm.vars {
		obj[i] = objCoef[v]
	}
	var der []bool
	if derived != nil {
		der = make([]bool, n)
		for i, v := range cm.vars {
			der[i] = derived[v]
		}
	}
	prop := newPropagator(n, cons)
	return solveComp(ci, n, cons, obj, der, prop, opts, budget, kc)
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
	lcons := make([]lcon, len(dropped))
	identity := func(v expr.Var) int32 { return int32(v) }
	for i, c := range dropped {
		lcons[i] = toLcon(c, identity)
	}
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
			for _, v := range lcons[i].vars {
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
	// Witness components have no board slots: their values never move
	// the objective, so publishing them would corrupt the interval.
	wopts.Snapshots = nil
	// Witness work is deliberately not attached to the solve's ctrl:
	// its nodes do not count toward Stats.Nodes, so live counters
	// would drift from the reported totals. Each dive is budgeted, so
	// cancellation latency stays bounded anyway.
	for _, cm := range comps {
		b := witnessNodeBudget(opts)
		cr := solveOne(-1, cm, lcons, nil, prop.dom, nil, wopts, &b, nil)
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
