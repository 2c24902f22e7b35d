// Package solver is an exact binary integer programming (BIP) solver
// specialized for the optimization problems produced by LICM query
// answering: maximize or minimize an integer linear objective over
// binary variables subject to integer linear constraints.
//
// The paper hands these instances to IBM ILOG CPLEX; this package is
// the pure-Go substitute (see DESIGN.md). It wins the same way CPLEX
// does on these inputs — "each constraint contains only a very small
// number of variables" — by:
//
//  1. reachability pruning of variables and constraints not connected
//     to the objective (Section V, "Pruning"),
//  2. presolve fixing via bound propagation,
//  3. decomposition into connected components of the variable/
//     constraint graph, solved independently,
//  4. per-component branch-and-bound, using LP relaxation bounds
//     (internal/simplex) for larger components and plain
//     propagation-based DFS for small ones.
//
// Budgets (node limits) turn the solver into an anytime algorithm: on
// exhaustion it reports the best value found together with a proven
// bound and Proven=false, mirroring CPLEX reporting "quite tight
// approximate bounds" on the paper's hardest instance.
package solver

import (
	"context"
	"errors"
	"fmt"
	"time"

	"licm/internal/check"
	"licm/internal/expr"
	"licm/internal/obs"
)

// ErrInfeasible is returned when no assignment satisfies the
// constraints.
var ErrInfeasible = errors.New("solver: infeasible")

// ErrCanceled is returned when the solve's context ended before any
// feasible point was found; when an incumbent exists, cancellation
// instead returns a best-effort result with Proven=false and
// Stats.Canceled=true.
var ErrCanceled = errors.New("solver: canceled before a feasible point was found")

// CheckError is returned (wrapped in ErrInfeasible) when Options.Check
// proves the store infeasible before the search starts. Report carries
// every diagnostic the pass produced, so the caller can show *why* the
// store admits no world instead of a bare "infeasible".
type CheckError struct {
	Report check.Report
}

// Error summarizes the findings; the full report is in e.Report.
func (e *CheckError) Error() string {
	for _, d := range e.Report.Diags {
		if d.Severity == check.SevError {
			return fmt.Sprintf("solver: infeasible (static check, %d diagnostic(s)): %s",
				len(e.Report.Diags), d.Message)
		}
	}
	return fmt.Sprintf("solver: infeasible (static check, %d diagnostic(s))", len(e.Report.Diags))
}

// Unwrap makes errors.Is(err, ErrInfeasible) hold: a check rejection
// is an infeasibility verdict with an attached explanation.
func (e *CheckError) Unwrap() error { return ErrInfeasible }

// Options control the solving strategy. The zero value is not useful;
// start from DefaultOptions.
type Options struct {
	// Check runs the static diagnostics pass (internal/check) over
	// the store before solving. A store the pass proves infeasible is
	// rejected immediately with a *CheckError (which unwraps to
	// ErrInfeasible and carries the diagnostics) instead of surfacing
	// a bare ErrInfeasible deep inside the search; warnings never
	// change the solve. The pass is linear in the store size — cheap
	// insurance on hand-built or translated stores, off by default
	// because query-generated stores are well-formed by construction.
	Check bool
	// Prune enables reachability pruning of constraints and variables
	// not connected to the objective.
	Prune bool
	// Decompose enables connected-component decomposition.
	Decompose bool
	// UseLP enables LP relaxation bounds inside branch-and-bound for
	// components larger than DFSThreshold.
	UseLP bool
	// DFSThreshold is the component size (free variables) at or below
	// which plain propagation DFS is used instead of LP-based B&B.
	// Components with more than 600 free variables or 1,200
	// constraints skip LP bounding too.
	DFSThreshold int
	// MaxNodes bounds the total branch-and-bound nodes across all
	// components; 0 means unlimited, apart from the safety budget of
	// 2,000,000 nodes each non-trivial component then gets. On
	// exhaustion the result is marked unproven.
	MaxNodes int64
	// CompleteWitness requests a feasible assignment for variables in
	// components that do not touch the objective (they do not affect
	// the optimum, but a full witness world needs them). Each dive of
	// the completion is capped at 500,000 nodes; when that runs out the
	// bounds still stand but Assignment is nil and
	// Stats.WitnessExhausted is set.
	CompleteWitness bool
	// OrderSeed, when non-zero, deterministically perturbs the
	// branching order (a tie-break jitter on the objective-magnitude
	// keys). Any order is correct; a supervisor retries a panicked
	// solve with a fresh seed so a crash tied to one exploration order
	// is not replayed verbatim.
	OrderSeed int64

	// Trace, if non-nil, receives structured span events for every
	// solver phase (validate, check, prune, presolve, decompose,
	// search, witness), incumbent events, and a solver.progress event
	// every 65536 nodes. nil disables tracing at no measurable cost.
	Trace *obs.Tracer
	// Metrics, if non-nil, receives live counters: solver.nodes,
	// solver.lp_solves, solver.propagations, solver.incumbents. They
	// are updated in flight (within ctrlGranularity nodes), so a
	// long solve is watchable via expvar.
	Metrics *obs.Registry
	// Explain, if non-nil, keeps the solve's per-component record (see
	// ExplainRecorder): pruning effect, each component's projected
	// constraint matrix, live bound and incumbent, outcome and witness,
	// and search attribution. Every solve writes the record; nil only
	// means it is dropped when the solve returns. One recorder may span
	// several solves — a Bounds call records a "max" and a "min" run.
	// internal/super reads anytime intervals from it, Certify derives
	// licm-cert/1 proofs from it after the solve, and package
	// internal/explain turns it into licm-explain/1 reports and
	// workload censuses.
	Explain *ExplainRecorder
}

// DefaultOptions returns the recommended settings.
func DefaultOptions() Options {
	return Options{
		Prune:           true,
		Decompose:       true,
		UseLP:           true,
		DFSThreshold:    22,
		MaxNodes:        0,
		CompleteWitness: true,
	}
}

// Stats reports work done and problem-size evolution during a solve.
// VarsBefore counts variables appearing in the objective or any
// constraint; the pruning figures reproduce the paper's Figure 7.
// The per-phase wall-clock durations split the solve the same way the
// paper's Figure 6 splits L-solve, so optimization claims can cite
// where the time actually went.
//
// Nodes, LPSolves and Propagations count the search every component
// takes, including the components the solve did not search again
// because an earlier component of the same solve had an equal matrix,
// objective and derived flags (ExplainComp.Reused): such a copy counts
// its representative's work, which searching it would have repeated
// exactly. They are therefore the same with or without that reuse;
// only the time falls.
type Stats struct {
	VarsBefore      int
	ConsBefore      int
	VarsAfterPrune  int
	ConsAfterPrune  int
	FixedByPresolve int
	Components      int
	Nodes           int64
	LPSolves        int64
	// Propagations counts variable assignments made by constraint
	// propagation (presolve fixings plus search-tree propagation),
	// excluding witness completion.
	Propagations int64

	// Wall-clock durations per phase. SearchTime covers component
	// decomposition plus branch-and-bound; TotalTime is the whole
	// Maximize/Minimize call and bounds the sum of the others.
	PruneTime    time.Duration
	PresolveTime time.Duration
	SearchTime   time.Duration
	WitnessTime  time.Duration
	TotalTime    time.Duration

	// Canceled reports that the solve's context ended the search
	// early; the result is then best-effort (Proven is false).
	Canceled bool
	// WitnessExhausted reports that witness completion ran out of its
	// node budget (500,000 nodes per dive): the bounds stand but
	// Result.Assignment is nil instead of a full world.
	WitnessExhausted bool

	// AllocBytes is the process-wide heap allocation (bytes, via
	// runtime.ReadMemStats) observed between solve start and end, and
	// PeakHeap the larger of the live-heap readings at those two
	// points. Both are recorded only when tracing or metrics are
	// attached (zero otherwise) and are process-level: concurrent
	// work on other goroutines is included.
	AllocBytes int64
	PeakHeap   int64
}

// Result is the outcome of a Maximize or Minimize call.
type Result struct {
	// Value is the best objective value found (the optimum when
	// Proven).
	Value int64
	// Bound is a proven bound on the optimum: an upper bound for
	// maximization, lower for minimization. Bound == Value when
	// Proven.
	Bound int64
	// Proven reports whether Value is the exact optimum.
	Proven bool
	// Assignment is a witness world achieving Value: Assignment[v] is
	// the value of variable v. It has length NumVars. When pruning is
	// enabled and CompleteWitness is false, variables outside the
	// objective's component may hold arbitrary values; when witness
	// completion runs out of its budget, Assignment is nil
	// (Stats.WitnessExhausted).
	Assignment []uint8
	// Stats describes the solve.
	Stats Stats
}

// Problem is a BIP instance: NumVars binary variables (ids
// 0..NumVars-1), Constraints over them, and an integer linear
// Objective.
type Problem struct {
	NumVars     int
	Constraints []expr.Constraint
	Objective   expr.Lin
	// Derived optionally marks variables that are functionally
	// determined by earlier variables through the constraints (LICM
	// lineage variables). The solver then branches on base variables
	// first and lets propagation settle the derived ones, which is
	// dramatically faster on query-translated stores. nil is fine.
	Derived []bool
}

// Validate checks the instance is structurally sound: NumVars is
// non-negative, every variable id is within range, expressions are
// normalized (no duplicate-variable or zero-coefficient terms, terms
// sorted by id — the invariant every expr constructor maintains and
// the propagator relies on), and Derived, when present, covers every
// variable.
func (p *Problem) Validate() error {
	if p.NumVars < 0 {
		return fmt.Errorf("solver: NumVars is negative (%d)", p.NumVars)
	}
	if p.Derived != nil && len(p.Derived) != p.NumVars {
		return fmt.Errorf("solver: Derived has length %d, want %d (one flag per variable)", len(p.Derived), p.NumVars)
	}
	// checkLin checks constraint ci's expression, or the objective's
	// when ci < 0. The name for the message is formatted only once a
	// check fails: this runs on every solve, over every constraint.
	checkLin := func(l expr.Lin, ci int) error {
		what := func() string {
			if ci < 0 {
				return "objective"
			}
			return fmt.Sprintf("constraint %d", ci)
		}
		prev := expr.Var(-1)
		for _, t := range l.Terms() {
			if t.Var < 0 || int(t.Var) >= p.NumVars {
				return fmt.Errorf("solver: %s references variable b%d outside [0,%d)", what(), t.Var, p.NumVars)
			}
			if t.Coef == 0 {
				return fmt.Errorf("solver: %s has a zero-coefficient term for b%d", what(), t.Var)
			}
			if t.Var == prev {
				return fmt.Errorf("solver: %s has duplicate terms for b%d", what(), t.Var)
			}
			if t.Var < prev {
				return fmt.Errorf("solver: %s terms are not sorted by variable id (b%d after b%d)", what(), t.Var, prev)
			}
			prev = t.Var
		}
		return nil
	}
	if err := checkLin(p.Objective, -1); err != nil {
		return err
	}
	for i, c := range p.Constraints {
		if err := checkLin(c.Lin, i); err != nil {
			return err
		}
	}
	return nil
}

// RunCheck projects the problem onto the static diagnostics pass and
// returns its report. This is what Options.Check invokes before a
// solve; it is exposed so callers can vet a problem without solving.
func (p *Problem) RunCheck() check.Report {
	return check.Check(check.Store{
		NumVars:     p.NumVars,
		Constraints: p.Constraints,
		Objective:   p.Objective,
		Derived:     p.Derived,
	})
}

// Maximize finds the maximum of p.Objective subject to p.Constraints.
//
// ctx bounds the search: it is polled about every 1024
// branch-and-bound nodes, and once it is done the solve aborts
// cooperatively, returning the best incumbent found with Proven=false
// and Stats.Canceled=true (or ErrCanceled when no feasible point was
// reached). A fault plan attached with faultinject.With reaches the
// solve's hook sites through ctx as well.
func Maximize(ctx context.Context, p *Problem, opts Options) (Result, error) {
	return solve(ctx, p, opts, false)
}

// Minimize finds the minimum of p.Objective subject to p.Constraints;
// ctx is handled as in Maximize.
func Minimize(ctx context.Context, p *Problem, opts Options) (Result, error) {
	neg := &Problem{NumVars: p.NumVars, Constraints: p.Constraints, Objective: p.Objective.Neg(), Derived: p.Derived}
	r, err := solve(ctx, neg, opts, true)
	if err != nil {
		return r, err
	}
	r.Value = -r.Value
	r.Bound = -r.Bound
	return r, nil
}

// Bounds computes both the minimum and maximum of the objective. This
// answers the paper's headline question: the exact lower and upper
// bounds of an aggregate query over all possible worlds.
func Bounds(ctx context.Context, p *Problem, opts Options) (min, max Result, err error) {
	max, err = Maximize(ctx, p, opts)
	if err != nil {
		return
	}
	min, err = Minimize(ctx, p, opts)
	return
}
