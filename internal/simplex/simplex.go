// Package simplex implements a dense two-phase primal simplex method
// for linear programs with bounded variables:
//
//	maximize    c·x
//	subject to  a_i·x  (<= | >= | =)  b_i     for every row i
//	            lo_j <= x_j <= hi_j           for every variable j
//
// It exists to provide LP relaxation bounds for the binary integer
// programs produced by LICM query answering (internal/solver); the
// relaxation of a BIP simply sets every bound to [0,1]. The
// implementation favors robustness over raw speed: problems are
// decomposed into small connected components before they reach this
// package, so a dense tableau is appropriate.
//
// The paper solves its BIP instances with IBM ILOG CPLEX; this package
// together with internal/solver is the pure-Go substitute (see
// DESIGN.md, "Substitutions").
package simplex

import (
	"fmt"
	"math"

	"licm/internal/faultinject"
)

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies all constraints and bounds.
	Infeasible
	// Unbounded means the objective can grow without limit.
	Unbounded
	// IterLimit means the iteration budget was exhausted before
	// convergence; the result must not be trusted as a bound.
	IterLimit
)

// String returns a readable name for the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Op is a row comparison operator.
type Op int8

// Row operators.
const (
	LE Op = iota // <=
	GE           // >=
	EQ           // =
)

// Entry is one non-zero coefficient of a constraint row.
type Entry struct {
	Col  int
	Coef float64
}

type row struct {
	entries []Entry
	op      Op
	rhs     float64
}

// LP is a linear program under construction. Create with New, populate
// with SetObjective/SetBounds/AddRow, then call Solve.
type LP struct {
	// Faults, if non-nil, is checked at every pivot (the LPPivot
	// site). The solver hands each LP it builds the injector carried
	// by its solve's context; nil, the default, never injects.
	Faults *faultinject.Injector

	n    int // structural variables
	obj  []float64
	lo   []float64
	hi   []float64
	rows []row
}

// New returns an LP with n structural variables, each bounded to
// [0,1] by default, and a zero objective.
func New(n int) *LP {
	lp := &LP{
		n:   n,
		obj: make([]float64, n),
		lo:  make([]float64, n),
		hi:  make([]float64, n),
	}
	for j := range lp.hi {
		lp.hi[j] = 1
	}
	return lp
}

// NumVars returns the number of structural variables.
func (lp *LP) NumVars() int { return lp.n }

// SetObjective sets the maximization objective coefficient of variable j.
func (lp *LP) SetObjective(j int, c float64) { lp.obj[j] = c }

// SetBounds sets the bounds of variable j. Use math.Inf for an
// unbounded side.
func (lp *LP) SetBounds(j int, lo, hi float64) {
	lp.lo[j] = lo
	lp.hi[j] = hi
}

// AddRow appends the constraint  sum(entries) op rhs.
func (lp *LP) AddRow(entries []Entry, op Op, rhs float64) {
	lp.rows = append(lp.rows, row{entries: append([]Entry(nil), entries...), op: op, rhs: rhs})
}

// Solution is the result of a successful Solve.
type Solution struct {
	// Obj is the optimal objective value.
	Obj float64
	// X holds the optimal values of the structural variables.
	X []float64
}

const eps = 1e-9

// Solve runs the two-phase simplex method and returns the solution
// when Status is Optimal. For any other status the solution contents
// are undefined.
func (lp *LP) Solve() (Solution, Status) {
	t := newTableau(lp)
	sol, st, _ := t.solve(false)
	return sol, st
}

// DualInfo carries per-row multipliers read off the final tableau.
// The vectors are float candidates, not proofs: a consumer that wants
// a sound bound must clip each multiplier to the sign its row operator
// admits and re-derive the bound in exact arithmetic (internal/cert
// does exactly that). Extraction never affects the primal result.
type DualInfo struct {
	// Duals has one multiplier per row when Status is Optimal: the
	// simplex multipliers y = c_B B^{-1} of the phase-2 optimum.
	Duals []float64
	// Farkas has one multiplier per row when Status is Infeasible:
	// the phase-1 multipliers at the infeasible optimum, a candidate
	// certificate that the row system admits no point in the box.
	Farkas []float64
}

// SolveWithDuals is Solve plus dual extraction: on Optimal the
// returned DualInfo carries the row duals, on Infeasible a Farkas
// candidate. Other statuses leave DualInfo empty.
func (lp *LP) SolveWithDuals() (Solution, Status, DualInfo) {
	t := newTableau(lp)
	return t.solve(true)
}

// tableau holds the dense working state of a solve. Columns are laid
// out as [0,n) structural, [n,n+m) slack, then one artificial column
// per row whose slack cannot start basic-feasible.
type tableau struct {
	n, m    int
	ncols   int
	nart    int
	a       [][]float64 // m x ncols, current tableau rows (B^{-1} A)
	lo, hi  []float64
	x       []float64
	atUpper []bool
	basis   []int
	inBasis []bool
	obj     []float64 // phase-2 objective, padded with zeros
	// corrupt latches when a pivot element is non-finite or vanishing:
	// the tableau can no longer be trusted and the solve must end with
	// IterLimit rather than a fabricated Optimal.
	corrupt bool
	faults  *faultinject.Injector
}

func newTableau(lp *LP) *tableau {
	n, m := lp.n, len(lp.rows)
	// First pass: compute residuals and decide which rows need an
	// artificial column (slack value out of its bounds).
	resid := make([]float64, m)
	needsArt := make([]bool, m)
	start := make([]float64, n)
	nart := 0
	for j := 0; j < n; j++ {
		switch {
		case !math.IsInf(lp.lo[j], -1):
			start[j] = lp.lo[j]
		case !math.IsInf(lp.hi[j], 1):
			start[j] = lp.hi[j]
		}
	}
	for i, r := range lp.rows {
		v := r.rhs
		for _, e := range r.entries {
			v -= e.Coef * start[e.Col]
		}
		resid[i] = v
		switch r.op {
		case LE:
			needsArt[i] = v < 0
		case GE:
			needsArt[i] = v > 0
		case EQ:
			needsArt[i] = !exactlyZero(v)
		}
		if needsArt[i] {
			nart++
		}
	}
	ncols := n + m + nart
	t := &tableau{
		n:       n,
		m:       m,
		ncols:   ncols,
		nart:    nart,
		a:       make([][]float64, m),
		lo:      make([]float64, ncols),
		hi:      make([]float64, ncols),
		x:       make([]float64, ncols),
		atUpper: make([]bool, ncols),
		basis:   make([]int, m),
		inBasis: make([]bool, ncols),
		obj:     make([]float64, ncols),
		faults:  lp.Faults,
	}
	copy(t.lo, lp.lo)
	copy(t.hi, lp.hi)
	copy(t.obj, lp.obj)
	nextArt := n + m
	for i, r := range lp.rows {
		rowv := make([]float64, ncols)
		for _, e := range r.entries {
			rowv[e.Col] += e.Coef
		}
		slack := n + i
		rowv[slack] = 1
		switch r.op {
		case LE:
			t.lo[slack], t.hi[slack] = 0, math.Inf(1)
		case GE:
			t.lo[slack], t.hi[slack] = math.Inf(-1), 0
		case EQ:
			t.lo[slack], t.hi[slack] = 0, 0
		}
		if !needsArt[i] {
			// The slack itself starts basic at the residual value,
			// which is within its bounds: no artificial needed.
			t.a[i] = rowv
			t.basis[i] = slack
			t.inBasis[slack] = true
			t.x[slack] = resid[i]
			continue
		}
		// Artificial variable absorbs the initial residual so that the
		// starting basis is feasible for phase 1. Negate the row when
		// the residual is negative so the artificial's column is +1:
		// basic columns must form an identity.
		art := nextArt
		nextArt++
		if resid[i] < 0 {
			for k := range rowv {
				rowv[k] = -rowv[k]
			}
		}
		rowv[art] = 1
		t.lo[art], t.hi[art] = 0, math.Inf(1)
		t.a[i] = rowv
		t.basis[i] = art
		t.inBasis[art] = true
		t.x[art] = math.Abs(resid[i])
	}
	for j := 0; j < n; j++ {
		t.x[j] = start[j]
		t.atUpper[j] = math.IsInf(t.lo[j], -1) && !math.IsInf(t.hi[j], 1)
	}
	// Nonbasic slacks start at 0, a bound in all three cases. A GE
	// slack's finite bound is its upper bound.
	for i := 0; i < m; i++ {
		slack := n + i
		if !t.inBasis[slack] {
			t.atUpper[slack] = math.IsInf(t.lo[slack], -1)
		}
	}
	return t
}

func (t *tableau) solve(wantDuals bool) (Solution, Status, DualInfo) {
	var di DualInfo
	// Phase 1: maximize -(sum of artificials).
	if t.nart > 0 {
		phase1 := make([]float64, t.ncols)
		for art := t.n + t.m; art < t.ncols; art++ {
			phase1[art] = -1
		}
		st := t.iterate(phase1)
		if st == IterLimit {
			return Solution{}, IterLimit, di
		}
		infeas := 0.0
		for art := t.n + t.m; art < t.ncols; art++ {
			infeas += t.x[art]
		}
		if infeas > 1e-7 {
			if wantDuals {
				di.Farkas = t.rowDuals(phase1)
			}
			return Solution{}, Infeasible, di
		}
	}
	// Forbid artificials from re-entering or growing.
	for art := t.n + t.m; art < t.ncols; art++ {
		t.hi[art] = 0
		t.lo[art] = 0
		t.x[art] = 0
	}
	// Phase 2: the real objective.
	st := t.iterate(t.obj)
	switch st {
	case Optimal:
		sol := Solution{X: make([]float64, t.n)}
		copy(sol.X, t.x[:t.n])
		for j := 0; j < t.n; j++ {
			sol.Obj += t.obj[j] * t.x[j]
		}
		if wantDuals {
			di.Duals = t.rowDuals(t.obj)
		}
		return sol, Optimal, di
	default:
		return Solution{}, st, di
	}
}

// rowDuals reads the simplex multipliers off the final tableau:
// y_i = sum_k obj[basis[k]] * a[k][n+i], the reduced-cost defect of
// row i's slack column. That column is the i-th column of B^{-1} up to
// the sign flip newTableau applies to rows whose residual forced an
// artificial — but the same flip also relates the tableau's dual frame
// to the caller's row frame, so the two cancel and no sign correction
// is needed. Rows are small and dense here, so the m x m sweep is fine.
func (t *tableau) rowDuals(obj []float64) []float64 {
	y := make([]float64, t.m)
	for k := 0; k < t.m; k++ {
		cb := obj[t.basis[k]]
		if exactlyZero(cb) {
			continue
		}
		row := t.a[k]
		for i := 0; i < t.m; i++ {
			y[i] += cb * row[t.n+i]
		}
	}
	return y
}

// iterate runs primal simplex iterations maximizing obj until optimal,
// unbounded, or the iteration budget is hit.
func (t *tableau) iterate(obj []float64) Status {
	maxIter := 200*(t.m+t.ncols) + 2000
	stall := 0
	lastObj := math.Inf(-1)
	for iter := 0; iter < maxIter; iter++ {
		if t.corrupt {
			return IterLimit
		}
		bland := stall > 2*(t.m+t.n)+50
		j, dir := t.chooseEntering(obj, bland)
		if j < 0 {
			return Optimal
		}
		delta, leave, leaveToUpper := t.ratioTest(j, dir)
		if math.IsInf(delta, 1) {
			return Unbounded
		}
		t.applyStep(j, dir, delta, leave, leaveToUpper)
		cur := 0.0
		for _, bi := range t.basis {
			cur += obj[bi] * t.x[bi]
		}
		for jj := 0; jj < t.ncols; jj++ {
			if !t.inBasis[jj] && !exactlyZero(obj[jj]) {
				cur += obj[jj] * t.x[jj]
			}
		}
		if cur > lastObj+eps {
			stall = 0
			lastObj = cur
		} else {
			stall++
		}
	}
	return IterLimit
}

// chooseEntering returns the entering column and its direction (+1 to
// increase from lower bound, -1 to decrease from upper bound), or
// (-1,0) if no candidate has a favorable reduced cost (optimal).
func (t *tableau) chooseEntering(obj []float64, bland bool) (int, int) {
	// Precompute the rows whose basic variable has a non-zero
	// objective weight; only those contribute to reduced costs. LICM
	// objectives are sparse, so this list is short in phase 2.
	type weighted struct {
		row int
		w   float64
	}
	var wrows []weighted
	for i := 0; i < t.m; i++ {
		if cb := obj[t.basis[i]]; !exactlyZero(cb) {
			wrows = append(wrows, weighted{i, cb})
		}
	}
	best, bestScore, bestDir := -1, eps, 0
	for j := 0; j < t.ncols; j++ {
		if t.inBasis[j] {
			continue
		}
		if exactlyEqual(t.lo[j], t.hi[j]) { // fixed variable can never move
			continue
		}
		// Reduced cost d_j = obj_j - sum_i obj_basis[i] * a[i][j].
		d := obj[j]
		for _, wr := range wrows {
			d -= wr.w * t.a[wr.row][j]
		}
		var dir int
		switch {
		case d > eps && !t.atUpper[j]:
			dir = +1
		case d < -eps && t.atUpper[j]:
			dir = -1
		default:
			continue
		}
		if bland {
			return j, dir
		}
		if s := math.Abs(d); s > bestScore {
			best, bestScore, bestDir = j, s, dir
		}
	}
	return best, bestDir
}

// ratioTest computes how far the entering variable j can move in
// direction dir before it or a basic variable hits a bound. It returns
// the step length, the limiting basic row (-1 for a bound flip of j
// itself), and whether the leaving variable leaves at its upper bound.
func (t *tableau) ratioTest(j, dir int) (delta float64, leave int, leaveToUpper bool) {
	delta = math.Inf(1)
	leave = -1
	// The entering variable's own opposite bound.
	if dir > 0 && !math.IsInf(t.hi[j], 1) {
		delta = t.hi[j] - t.x[j]
	} else if dir < 0 && !math.IsInf(t.lo[j], -1) {
		delta = t.x[j] - t.lo[j]
	}
	for i := 0; i < t.m; i++ {
		alpha := float64(dir) * t.a[i][j]
		bi := t.basis[i]
		switch {
		case alpha > eps: // basic variable decreases
			if !math.IsInf(t.lo[bi], -1) {
				if lim := (t.x[bi] - t.lo[bi]) / alpha; lim < delta-eps ||
					(lim < delta+eps && (leave == -1 || bi < t.basis[leave])) {
					if lim < 0 {
						lim = 0
					}
					delta, leave, leaveToUpper = lim, i, false
				}
			}
		case alpha < -eps: // basic variable increases
			if !math.IsInf(t.hi[bi], 1) {
				if lim := (t.hi[bi] - t.x[bi]) / (-alpha); lim < delta-eps ||
					(lim < delta+eps && (leave == -1 || bi < t.basis[leave])) {
					if lim < 0 {
						lim = 0
					}
					delta, leave, leaveToUpper = lim, i, true
				}
			}
		}
	}
	return delta, leave, leaveToUpper
}

// applyStep moves the entering variable, updates all basic values, and
// performs the pivot (or bound flip).
func (t *tableau) applyStep(j, dir int, delta float64, leave int, leaveToUpper bool) {
	if delta > 0 {
		t.x[j] += float64(dir) * delta
		for i := 0; i < t.m; i++ {
			t.x[t.basis[i]] -= float64(dir) * delta * t.a[i][j]
		}
	}
	if leave < 0 {
		// Bound flip: j moves to its opposite bound and stays nonbasic.
		t.atUpper[j] = dir > 0
		return
	}
	leaving := t.basis[leave]
	t.inBasis[leaving] = false
	t.atUpper[leaving] = leaveToUpper
	// Snap the leaving variable exactly onto its bound to stop
	// numerical drift from accumulating.
	if leaveToUpper {
		t.x[leaving] = t.hi[leaving]
	} else {
		t.x[leaving] = t.lo[leaving]
	}
	t.pivot(leave, j)
	t.basis[leave] = j
	t.inBasis[j] = true
}

// pivot performs Gaussian elimination so that column j becomes the
// unit vector for row r. It is the fault-injection site for numerical
// corruption: a plan can poison the pivot element (NaN/Inf) or panic
// at an exact pivot index, exercising the solver's defenses against a
// misbehaving LP kernel.
func (t *tableau) pivot(r, j int) {
	switch t.faults.Check(faultinject.LPPivot) {
	case faultinject.JitterNaN:
		t.a[r][j] = math.NaN()
	case faultinject.JitterInf:
		t.a[r][j] = math.Inf(1)
	}
	piv := t.a[r][j]
	if math.IsNaN(piv) || math.IsInf(piv, 0) || math.Abs(piv) < 1e-12 {
		t.corrupt = true
		return
	}
	inv := 1 / piv
	rowR := t.a[r]
	for k := 0; k < t.ncols; k++ {
		rowR[k] *= inv
	}
	rowR[j] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.a[i][j]
		if exactlyZero(f) {
			continue
		}
		rowI := t.a[i]
		for k := 0; k < t.ncols; k++ {
			rowI[k] -= f * rowR[k]
		}
		rowI[j] = 0 // exact
	}
}
