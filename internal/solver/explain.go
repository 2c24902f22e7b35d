package solver

import (
	"sync"

	"licm/internal/expr"
)

// ExplainRecorder is the per-component record of a solve. Every solve
// writes one run onto it: the pruning effect, the decomposed
// components with each one's projected constraint matrix (the matrix
// the search then solves as is), each component's live upper bound
// and incumbent while its search runs, and its outcome and search
// attribution when the search returns.
//
// Attach one via Options.Explain to keep the record; without one the
// solve writes it to a recorder of its own and drops it. A single
// recorder may span several solves — a Bounds call appends a "max"
// and a "min" run, and a supervised solve appends one run per attempt.
// The record has three readers: internal/super takes the anytime
// interval of a cut-short attempt from it (Interval), Certify derives
// proofs from its matrices and witnesses, and package internal/explain
// builds the licm-explain/1 report and the workload census on top. All
// methods are safe for concurrent use.
type ExplainRecorder struct {
	mu   sync.Mutex
	runs []ExplainRun
}

// ExplainRun is the record of one Maximize/Minimize call.
type ExplainRun struct {
	// Sense is "max" or "min" (the solver's label; Minimize negates
	// the objective, so a min run's component objectives, Base and
	// Value are negated).
	Sense string
	// Quality is the supervisor's degradation tag for the run
	// ("exact", "proven-interval", "sampled", "failed"); empty for
	// unsupervised solves. See ExplainRecorder.TagSense.
	Quality string

	// Pruning effect (the same figures as Stats).
	VarsBefore      int
	ConsBefore      int
	VarsAfterPrune  int
	ConsAfterPrune  int
	FixedByPresolve int

	// Base is the objective constant plus the contribution of the
	// variables presolve fixed: the part of the value no component
	// accounts for. Value is the run's final objective value (zero on
	// an error return). A clean proven run has
	// Value == Base + sum(component Best).
	Base  int64
	Value int64

	// Components are the decomposed subproblems, registered before any
	// search work — so they survive cancellation and budget exhaustion
	// even though the run totals may then be lost.
	Components []ExplainComp

	// Work totals and phase durations, copied from Stats when the
	// solve returns. On an error return the solver zeroes its Result,
	// so Nodes/LPSolves/Propagations are reconstructed from the
	// per-component records instead (presolve propagations included
	// via FixedByPresolve).
	Nodes        int64
	LPSolves     int64
	Propagations int64
	PruneNs      int64
	PresolveNs   int64
	SearchNs     int64
	WitnessNs    int64
	TotalNs      int64
	AllocBytes   int64
	PeakHeap     int64

	Canceled         bool
	WitnessExhausted bool
	Proven           bool
	// Err is the terminal error text, empty on success.
	Err string

	// decomposed is set once Base and Components are registered;
	// before that (validation, static-check or presolve failures) the
	// run supports no interval claim.
	decomposed bool
}

// ExplainComp is one decomposed component: its projected constraint
// matrix over local variable ids 0..Vars-1 (globally-fixed variables
// folded into the right-hand sides), which is exactly what the
// component search solves, plus the search's live state, outcome and
// work. Values are in the sense of the internal maximization.
type ExplainComp struct {
	// Index is the component's slot in the decomposition (the same
	// index CompPanic uses).
	Index int
	// Vars is the number of local variables.
	Vars int
	// Cons is the projected constraint matrix.
	Cons []ExplainCon
	// Obj holds the local objective coefficients (length Vars).
	Obj []int64

	// Live state, valid at any moment of the search. UpperBound is a
	// proven upper bound on the component's optimum: the sum of its
	// positive objective coefficients at registration, tightened by
	// the root LP relaxation and finally by the search's bound.
	// Incumbent is the best feasible value found so far, meaningful
	// only when HasIncumbent: a proven lower bound on the optimum.
	UpperBound   int64
	Incumbent    int64
	HasIncumbent bool

	// Search attribution and outcome, filled when the component's
	// search returns; zero (with Solved false) when it never did.
	//
	// Reused marks a component whose matrix, objective and derived
	// flags equal an earlier component's of the same run: the solve did
	// not search it again but gave it that component's outcome,
	// witness and counts (Nodes, LPSolves, Propagations, which the
	// run's totals include), since the search would have repeated them
	// exactly. Its SolveNs is the near-zero time of taking them, and
	// its LPNs 0.
	Solved       bool
	Reused       bool
	Nodes        int64
	LPSolves     int64
	Propagations int64
	// SolveNs is the component's wall-clock solve time; LPNs the part
	// spent inside LP relaxation solves.
	SolveNs int64
	LPNs    int64

	Feasible bool
	Proven   bool
	Best     int64
	Bound    int64
	// Witness is a point achieving Best over the local variables (nil
	// when the search found no feasible point).
	Witness []int8
}

// ExplainCon is one constraint row over local variable ids: the form
// the propagator, the LP relaxation, the record and the certificates
// all share.
type ExplainCon struct {
	Vars []int32
	Coef []int64
	Op   expr.Op
	RHS  int64
}

// Runs returns a snapshot of the recorded runs. The snapshot shares
// matrix and witness storage with the recorder; treat it as read-only.
func (r *ExplainRecorder) Runs() []ExplainRun {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ExplainRun, len(r.runs))
	copy(out, r.runs)
	for i := range out {
		out[i].Components = append([]ExplainComp(nil), out[i].Components...)
	}
	return out
}

// Len returns the number of runs recorded so far: the next solve on
// the recorder opens run Len().
func (r *ExplainRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.runs)
}

// Interval assembles the anytime proven interval of a run's objective
// from its component records, in the internal maximization sense (for
// a "min" run a caller negates and swaps the ends): hi is always a
// proven upper bound, Base plus every component's UpperBound; lo is a
// proven lower bound only when every component has an incumbent
// (hasLo). ok is false when the run does not exist or never reached
// decomposition, or some component proved infeasibility — no interval
// claim can be made then.
func (r *ExplainRecorder) Interval(run int) (lo, hi int64, hasLo, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if run < 0 || run >= len(r.runs) || !r.runs[run].decomposed {
		return 0, 0, false, false
	}
	rr := &r.runs[run]
	lo, hi, hasLo = rr.Base, rr.Base, true
	for i := range rr.Components {
		c := &rr.Components[i]
		if c.Solved && !c.Feasible && c.Proven {
			return 0, 0, false, false
		}
		hi += c.UpperBound
		if c.HasIncumbent {
			lo += c.Incumbent
		} else {
			hasLo = false
		}
	}
	if !hasLo {
		lo = 0
	}
	return lo, hi, hasLo, true
}

// TagSense stamps quality onto every recorded run with the given
// sense ("max" or "min") — the hook internal/super uses to attach its
// degradation-ladder verdict to the runs (including retries) of one
// side.
func (r *ExplainRecorder) TagSense(sense, quality string) {
	r.mu.Lock()
	for i := range r.runs {
		if r.runs[i].Sense == sense {
			r.runs[i].Quality = quality
		}
	}
	r.mu.Unlock()
}

// recorderFor returns the recorder a solve writes to: the caller's
// Options.Explain, or a fresh one the solve drops.
func recorderFor(opts Options) *ExplainRecorder {
	if opts.Explain != nil {
		return opts.Explain
	}
	return &ExplainRecorder{}
}

// start opens a new run and returns its index.
func (r *ExplainRecorder) start(sense string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs = append(r.runs, ExplainRun{Sense: sense})
	return len(r.runs) - 1
}

// register installs the pruning/presolve figures, the base value and
// the projected components. Called once per run, after decomposition
// and before any search work, so the figures survive a later error
// return (which zeroes Stats) and an interval is available from the
// first moment a fault can strike. The search then writes into comps
// in place.
func (r *ExplainRecorder) register(run int, st *Stats, base int64, comps []ExplainComp) {
	r.mu.Lock()
	rr := &r.runs[run]
	rr.VarsBefore = st.VarsBefore
	rr.ConsBefore = st.ConsBefore
	rr.VarsAfterPrune = st.VarsAfterPrune
	rr.ConsAfterPrune = st.ConsAfterPrune
	rr.FixedByPresolve = st.FixedByPresolve
	rr.PruneNs = st.PruneTime.Nanoseconds()
	rr.PresolveNs = st.PresolveTime.Nanoseconds()
	rr.Base = base
	rr.Components = comps
	rr.decomposed = true
	r.mu.Unlock()
}

// refineUB tightens component c's live upper bound (no-op if ub is
// not tighter).
func (r *ExplainRecorder) refineUB(c *ExplainComp, ub int64) {
	r.mu.Lock()
	if ub < c.UpperBound {
		c.UpperBound = ub
	}
	r.mu.Unlock()
}

// observeIncumbent records a feasible value v of component c.
func (r *ExplainRecorder) observeIncumbent(c *ExplainComp, v int64) {
	r.mu.Lock()
	if !c.HasIncumbent || v > c.Incumbent {
		c.Incumbent, c.HasIncumbent = v, true
	}
	r.mu.Unlock()
}

// recordComp fills component c's outcome and search attribution once
// its search returned.
func (r *ExplainRecorder) recordComp(c *ExplainComp, cr compResult, solveNs int64) {
	r.mu.Lock()
	c.Solved = true
	c.Nodes = cr.nodes
	c.LPSolves = cr.lpSolves
	c.Propagations = cr.props
	c.SolveNs = solveNs
	c.LPNs = cr.lpNs
	c.Feasible = cr.feasible
	c.Proven = cr.proven
	c.Best = cr.best
	c.Bound = cr.bound
	c.Witness = cr.assign
	if cr.feasible {
		if !c.HasIncumbent || cr.best > c.Incumbent {
			c.Incumbent, c.HasIncumbent = cr.best, true
		}
		if cr.bound < c.UpperBound {
			c.UpperBound = cr.bound
		}
	}
	r.mu.Unlock()
}

// recordCopy fills component c's record from rep, an earlier component
// of the same solve whose search c repeats exactly: rep's live bound,
// outcome, witness and counts, c's own solve time, no LP time, and the
// Reused mark.
func (r *ExplainRecorder) recordCopy(c, rep *ExplainComp, solveNs int64) {
	r.mu.Lock()
	c.UpperBound, c.Incumbent, c.HasIncumbent = rep.UpperBound, rep.Incumbent, rep.HasIncumbent
	c.Solved, c.Reused = true, true
	c.Nodes, c.LPSolves, c.Propagations = rep.Nodes, rep.LPSolves, rep.Propagations
	c.SolveNs, c.LPNs = solveNs, 0
	c.Feasible, c.Proven, c.Best, c.Bound, c.Witness = rep.Feasible, rep.Proven, rep.Best, rep.Bound, rep.Witness
	r.mu.Unlock()
}

// finish closes the run with the solve's final result and error.
func (r *ExplainRecorder) finish(run int, res *Result, err error) {
	r.mu.Lock()
	rr := &r.runs[run]
	st := &res.Stats
	rr.Value = res.Value
	rr.Nodes = st.Nodes
	rr.LPSolves = st.LPSolves
	rr.Propagations = st.Propagations
	rr.SearchNs = st.SearchTime.Nanoseconds()
	rr.WitnessNs = st.WitnessTime.Nanoseconds()
	rr.TotalNs = st.TotalTime.Nanoseconds()
	rr.AllocBytes = st.AllocBytes
	rr.PeakHeap = st.PeakHeap
	rr.Canceled = st.Canceled
	rr.WitnessExhausted = st.WitnessExhausted
	rr.Proven = err == nil && res.Proven
	if err != nil {
		rr.Err = err.Error()
		// The error return zeroed Result.Stats; the per-component
		// records are the best remaining account of the work done.
		rr.Nodes, rr.LPSolves, rr.Propagations = 0, 0, int64(rr.FixedByPresolve)
		for i := range rr.Components {
			c := &rr.Components[i]
			rr.Nodes += c.Nodes
			rr.LPSolves += c.LPSolves
			rr.Propagations += c.Propagations
		}
	}
	r.mu.Unlock()
}

// projectAll returns each component's record with its constraints
// and objective projected into local variable ids, globally-fixed
// variables folded into the right-hand sides. It is the one
// projection: the search solves the returned matrices as is, so the
// explain fingerprint and the certificates name exactly the matrix
// that was solved. Components are disjoint, so one position table
// serves them all.
func projectAll(comps []component, lcons []ExplainCon, objCoef []int64, globalDom []int8) []ExplainComp {
	local := make([]int32, len(globalDom))
	for _, cm := range comps {
		for j, v := range cm.vars {
			local[v] = int32(j)
		}
	}
	out := make([]ExplainComp, len(comps))
	for ci, cm := range comps {
		ec := ExplainComp{Index: ci, Vars: len(cm.vars)}
		ec.Cons = make([]ExplainCon, 0, len(cm.cons))
		for _, row := range cm.cons {
			src := &lcons[row]
			con := ExplainCon{
				Vars: make([]int32, 0, len(src.Vars)),
				Coef: make([]int64, 0, len(src.Vars)),
				Op:   src.Op,
				RHS:  src.RHS,
			}
			for k, v := range src.Vars {
				switch globalDom[v] {
				case 1:
					con.RHS -= src.Coef[k]
				case 0:
					// contributes nothing
				default:
					con.Vars = append(con.Vars, local[v])
					con.Coef = append(con.Coef, src.Coef[k])
				}
			}
			ec.Cons = append(ec.Cons, con)
		}
		ec.Obj = make([]int64, len(cm.vars))
		for j, v := range cm.vars {
			c := objCoef[v]
			ec.Obj[j] = c
			if c > 0 {
				ec.UpperBound += c
			}
		}
		out[ci] = ec
	}
	return out
}
