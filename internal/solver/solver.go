package solver

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"licm/internal/check"
	"licm/internal/expr"
	"licm/internal/obs"
)

// defaultWitnessBudget caps the nodes of each dive that completes a
// witness over pruned (objective-irrelevant) components.
const defaultWitnessBudget int64 = 500_000

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
	// filled TotalTime/Canceled/memory into res.Stats. While a panic
	// unwinds, res and err still read as a clean proven solve: the run
	// is closed as unproven with the panic as its error, and the panic
	// carries on unchanged to the caller's boundary.
	defer func() {
		if r := recover(); r != nil {
			perr, ok := r.(error)
			if !ok {
				perr = fmt.Errorf("solver: panic: %v", r)
			}
			rec.finish(run, &res, perr)
			panic(r)
		}
		rec.finish(run, &res, err)
	}()
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
	// dropped collects the pruned-away constraints, which only witness
	// completion reads.
	var dropped []expr.Constraint
	var reach []bool
	if opts.Prune {
		pr := Prune(p.NumVars, p.Constraints, p.Objective)
		reach = pr.Reachable
		kept = make([]expr.Constraint, 0, len(pr.KeptConstraints))
		di := 0
		for i, c := range p.Constraints {
			if di < len(pr.KeptConstraints) && pr.KeptConstraints[di] == i {
				kept = append(kept, c)
				di++
			} else if opts.CompleteWitness {
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

	// Root presolve over the kept constraints. From here on variables
	// carry dense ids 0..n-1 over what pruning kept, in store-id order,
	// so every array is sized to what the query reaches; ids maps them
	// back to the store.
	phaseStart = time.Now()
	sp = root.Start("solver.presolve")
	ids, pos := denseIDs(p.NumVars, reach, res.Stats.VarsAfterPrune)
	n := len(ids)
	lcons := make([]ExplainCon, len(kept))
	dense := func(v expr.Var) int32 { return pos[v] }
	for i, c := range kept {
		lcons[i] = toLcon(c, dense)
	}
	prop := newPropagator(n, lcons, nil)
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
	// variables; the free variables' coefficients feed component
	// objectives.
	total := p.Objective.Const()
	objCoef := make([]int64, n)
	for _, t := range p.Objective.Terms() {
		v := pos[t.Var]
		switch prop.dom[v] {
		case 1:
			total += t.Coef
		case 0:
			// contributes nothing
		default:
			objCoef[v] = t.Coef
		}
	}
	for v, id := range ids {
		if prop.dom[v] == 1 {
			res.Assignment[id] = 1
		}
	}

	// Decompose into connected components over free variables.
	searchStart := time.Now()
	sp = root.Start("solver.decompose", obs.Bool("enabled", opts.Decompose))
	free := make([]bool, n)
	for v := range free {
		free[v] = prop.dom[v] == -1
	}
	comps := decompose(n, lcons, free, objCoef)
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
	slots := projectAll(comps, lcons, objCoef, prop.dom)
	rec.register(run, &res.Stats, total, slots)
	results := solveAll(rec, slots, compDerived(comps, ids, p.Derived), opts, budget, kc)
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
				res.Assignment[ids[v]] = 1
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

// solveAll solves every component on its record slot, in order, and
// searches each distinct component once: a component whose matrix,
// objective and derived flags equal an earlier one's (see classes)
// repeats that search exactly, so it takes the earlier outcome instead.
// It does so only when that outcome is proven, the solve is not
// canceled, and the shared budget still holds the nodes the earlier
// search drew from it; the draw is then charged, so every
// budget-limited answer is the one searching the repeat would give. A
// panic in a component's search leaves as a *CompPanic naming it.
func solveAll(rec *ExplainRecorder, slots []ExplainComp, derived [][]bool, opts Options, budget *int64, kc *ctrl) []compResult {
	results := make([]compResult, len(slots))
	first := classes(slots, derived)
	draws := make([]int64, len(slots))
	for ci := range slots {
		if r := first[ci]; r != ci && results[r].proven && !kc.isCanceled() &&
			(budget == nil || *budget >= draws[r]) {
			if budget != nil {
				*budget -= draws[r]
			}
			results[ci] = reuse(rec, &slots[ci], &slots[r], results[r], kc)
			continue
		}
		var before int64
		if budget != nil {
			before = *budget
		}
		results[ci] = solveOneGuarded(rec, &slots[ci], derived[ci], opts, budget, kc)
		if budget != nil {
			draws[ci] = before - *budget
		}
	}
	return results
}

// classes returns, for every component, the index of the first
// component of the solve whose search it repeats exactly, or its own
// index when there is none. The search is a deterministic function of
// the options and searchKey's inputs, and equal keys mean equal
// inputs: the map only buckets by hash, and key equality decides.
func classes(slots []ExplainComp, derived [][]bool) []int {
	first := make([]int, len(slots))
	seen := make(map[string]int, len(slots))
	var key []byte
	for ci := range slots {
		key = appendSearchKey(key[:0], &slots[ci], derived[ci])
		r, ok := seen[string(key)]
		if !ok {
			r = ci
			seen[string(key)] = ci
		}
		first[ci] = r
	}
	return first
}

// AppendMatrix appends the encoding of a projected component to b:
// the variable count, the objective and the constraint rows in
// recorded order, as self-delimiting varints with the objective, the
// row list and each row length-prefixed. Two encodings are equal
// exactly when the inputs are (rows holding as many coefficients as
// variables). It is a component's one identity: explain.Fingerprint
// hashes it, and the within-solve reuse key extends it.
func AppendMatrix(b []byte, vars int, obj []int64, cons []ExplainCon) []byte {
	b = binary.AppendVarint(b, int64(vars))
	b = binary.AppendVarint(b, int64(len(obj)))
	for _, o := range obj {
		b = binary.AppendVarint(b, o)
	}
	b = binary.AppendVarint(b, int64(len(cons)))
	for i := range cons {
		c := &cons[i]
		b = binary.AppendVarint(b, int64(c.Op))
		b = binary.AppendVarint(b, c.RHS)
		b = binary.AppendVarint(b, int64(len(c.Vars)))
		for k, v := range c.Vars {
			b = binary.AppendVarint(b, int64(v))
			b = binary.AppendVarint(b, c.Coef[k])
		}
	}
	return b
}

// appendSearchKey appends a component's search inputs to b: its
// matrix encoding (AppendMatrix, what its fingerprint hashes) followed
// by its derived flags, which the search reads and a certificate does
// not carry.
func appendSearchKey(b []byte, ec *ExplainComp, der []bool) []byte {
	b = AppendMatrix(b, ec.Vars, ec.Obj, ec.Cons)
	b = binary.AppendVarint(b, int64(len(der)))
	for _, d := range der {
		if d {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// reuse gives slot the outcome cr of rep, an earlier component whose
// search slot repeats exactly: rep's result, record and counts (which
// also reach the live counters), slot's own time. It makes no
// fault-site hit.
func reuse(rec *ExplainRecorder, slot, rep *ExplainComp, cr compResult, kc *ctrl) compResult {
	start := time.Now()
	if kc != nil {
		kc.add(cr.nodes, cr.lpSolves, cr.props)
	}
	cr.lpNs = 0
	rec.recordCopy(slot, rep, time.Since(start).Nanoseconds())
	return cr
}

// solveOne solves the projected component slot and records its outcome
// and solve time on it. der holds the slot's derived flags in local-id
// order (nil when the problem has none).
func solveOne(rec *ExplainRecorder, slot *ExplainComp, der []bool, opts Options, budget *int64, kc *ctrl) compResult {
	start := time.Now()
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
func solveOneGuarded(rec *ExplainRecorder, slot *ExplainComp, der []bool, opts Options, budget *int64, kc *ctrl) compResult {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*CompPanic); ok {
				panic(r)
			}
			panic(&CompPanic{Component: slot.Index, Value: r, Stack: debug.Stack()})
		}
	}()
	return solveOne(rec, slot, der, opts, budget, kc)
}

// component groups free variables connected through constraints, plus
// the indices of those constraints.
type component struct {
	vars []int32
	cons []int
}

// denseIDs numbers the variables keep marks (every variable when keep
// is nil) densely in id order; n is how many it marks. ids maps a
// dense id to its store id, pos a kept store id to its dense id.
func denseIDs(numVars int, keep []bool, n int) (ids []expr.Var, pos []int32) {
	ids = make([]expr.Var, 0, n)
	pos = make([]int32, numVars)
	for v := range pos {
		if keep == nil || keep[v] {
			pos[v] = int32(len(ids))
			ids = append(ids, expr.Var(v))
		}
	}
	return ids, pos
}

// compDerived returns each component's derived flags in local-id order
// (nil entries when the problem marks none); ids maps the components'
// variables to the store ids derived is indexed by.
func compDerived(comps []component, ids []expr.Var, derived []bool) [][]bool {
	out := make([][]bool, len(comps))
	if derived == nil {
		return out
	}
	for ci, cm := range comps {
		out[ci] = make([]bool, len(cm.vars))
		for i, v := range cm.vars {
			out[ci][i] = derived[ids[v]]
		}
	}
	return out
}

// decompose partitions the free variables among 0..n-1 into connected
// components of the variable/constraint graph. Free variables with a
// non-zero objective coefficient but in no constraint become singleton
// components; free variables in neither are omitted entirely.
func decompose(n int, cons []ExplainCon, free []bool, obj []int64) []component {
	parent := make([]int32, n)
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
	inCons := make([]bool, n)
	for i := range cons {
		first := int32(-1)
		for _, v := range cons[i].Vars {
			if !free[v] {
				continue
			}
			inCons[v] = true
			if first == -1 {
				first = v
			} else {
				union(first, v)
			}
		}
	}
	byRoot := make([]*component, n)
	ordered := make([]*component, 0, 16)
	compOf := func(root int32) *component {
		if c := byRoot[root]; c != nil {
			return c
		}
		c := &component{}
		byRoot[root] = c
		ordered = append(ordered, c)
		return c
	}
	for v := int32(0); v < int32(n); v++ {
		if !free[v] {
			continue
		}
		if !inCons[v] && obj[v] == 0 {
			continue
		}
		cc := compOf(find(v))
		cc.vars = append(cc.vars, v)
	}
	for ci := range cons {
		for _, v := range cons[ci].Vars {
			if free[v] {
				cc := compOf(find(v))
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
	obj := make([]int64, numVars)
	prop := newPropagator(numVars, lcons, nil)
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
		b := defaultWitnessBudget
		c := &comp{
			n:           numVars,
			cons:        lcons,
			obj:         obj,
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
	comps := decompose(numVars, lcons, free, obj)
	slots := projectAll(comps, lcons, obj, prop.dom)
	wopts := opts
	wopts.UseLP = false
	// Witness work is deliberately not attached to the solve's ctrl:
	// its nodes do not count toward Stats.Nodes, so live counters
	// would drift from the reported totals. Each dive is budgeted, so
	// cancellation latency stays bounded anyway.
	for ci, cm := range comps {
		b := defaultWitnessBudget
		cr := solveOne(scratch, &slots[ci], nil, wopts, &b, nil)
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

// sortInt32s sorts ascending, keeping the witness dive deterministic.
func sortInt32s(a []int32) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}
