package core

import (
	"fmt"

	"licm/internal/expr"
	"licm/internal/obs"
)

// Ext is the special existence attribute of an LICM tuple
// (Definition 2): the constant 1 for a certain tuple, or a binary
// variable for a maybe-tuple.
type Ext struct {
	v expr.Var // -1 for a certain tuple
}

// Certain is the Ext of a tuple that exists in every possible world.
var Certain = Ext{v: -1}

// Maybe wraps an existence variable into an Ext.
func Maybe(v expr.Var) Ext { return Ext{v: v} }

// IsCertain reports whether the tuple exists in every world.
func (e Ext) IsCertain() bool { return e.v < 0 }

// Var returns the existence variable of a maybe-tuple; it panics on a
// certain tuple.
func (e Ext) Var() expr.Var {
	if e.v < 0 {
		panic("core: Var() on certain Ext")
	}
	return e.v
}

// String renders the Ext as in the paper's figures: "1" or "b<i>".
func (e Ext) String() string {
	if e.v < 0 {
		return "1"
	}
	return fmt.Sprintf("b%d", e.v)
}

// DefKind classifies how a variable's value is determined.
type DefKind uint8

// Definition kinds. Base variables are the input uncertainty; the
// others are lineage variables created by operators, whose value is a
// deterministic function of earlier variables (the paper's
// "deterministic operator" property).
const (
	DefBase    DefKind = iota
	DefAnd             // true iff all argument variables are true
	DefOr              // true iff any argument variable is true
	DefCountLE         // true iff N + sum(args) <= D
	DefCountGE         // true iff N + sum(args) >= D
)

// Def records how a derived variable is determined by earlier ones.
// The linear constraints emitted alongside it make any valid
// assignment agree with this function; keeping the function explicitly
// lets worlds be instantiated by propagation instead of search.
type Def struct {
	Kind DefKind
	Args []expr.Var
	N    int // number of certain tuples in the group (count defs)
	D    int // threshold d (count defs)
}

// DB is an LICM database's shared state (Definition 3): the pool of
// binary variables B, the constraint set C, and the definition of each
// derived variable. Relations reference it; all operators that create
// lineage variables take the DB they should record into.
type DB struct {
	// base holds the definitions a fork shares with the DB it was
	// forked from, as that DB's segments: read in place, never
	// written. defs holds the DB's own definitions, numbered from
	// nbase, the number of definitions in base.
	base  [][]Def
	nbase int
	defs  []Def
	cons  []expr.Constraint
	// tr, when set, receives an "op.<name>" span for every operator
	// call recording lineage into this DB.
	tr *obs.Tracer
}

// NewDB returns an empty LICM database.
func NewDB() *DB { return &DB{} }

// Fork returns a DB that reads db's variables and constraints in place
// and records its own after them: its first new variable is numbered
// db.NumVars(), and nothing it adds is visible to db or to another fork
// of db. A fork copies no definition; its first added constraint copies
// the constraint slice, which the solver needs contiguous. Fork only
// reads db, so any number of goroutines may fork one DB that nothing
// writes and use their forks concurrently. The fork starts with db's
// tracer.
func (db *DB) Fork() *DB {
	n := len(db.cons)
	return &DB{base: db.segments(), nbase: db.NumVars(), cons: db.cons[:n:n], tr: db.tr}
}

// segments returns the definitions in id order: the shared base
// segments, then the DB's own.
func (db *DB) segments() [][]Def {
	return append(db.base[:len(db.base):len(db.base)], db.defs)
}

// derivedFlags marks each variable whose value a definition determines.
func (db *DB) derivedFlags() []bool {
	derived := make([]bool, 0, db.NumVars())
	for _, seg := range db.segments() {
		for _, d := range seg {
			derived = append(derived, d.Kind != DefBase)
		}
	}
	return derived
}

// SetTracer attaches a tracer; operators on this DB then emit
// per-operator spans with input/output tuple counts and the number of
// lineage variables and constraints they created. nil detaches.
func (db *DB) SetTracer(tr *obs.Tracer) { db.tr = tr }

// Tracer returns the attached tracer (nil when tracing is off; a nil
// *DB also reports nil).
func (db *DB) Tracer() *obs.Tracer {
	if db == nil {
		return nil
	}
	return db.tr
}

// NumVars returns the number of variables allocated so far.
func (db *DB) NumVars() int { return db.nbase + len(db.defs) }

// NumConstraints returns the number of constraints in the store.
func (db *DB) NumConstraints() int { return len(db.cons) }

// Constraints exposes the constraint store. The returned slice is
// owned by the DB; callers must not modify it.
func (db *DB) Constraints() []expr.Constraint { return db.cons }

// Def returns the definition of variable v.
func (db *DB) Def(v expr.Var) Def {
	i := int(v)
	for _, seg := range db.base {
		if i < len(seg) {
			return seg[i]
		}
		i -= len(seg)
	}
	return db.defs[i]
}

// NewVar allocates a fresh base (input-uncertainty) variable.
func (db *DB) NewVar() expr.Var {
	db.defs = append(db.defs, Def{Kind: DefBase})
	return expr.Var(db.NumVars() - 1)
}

// NewVars allocates n fresh base variables and returns them.
func (db *DB) NewVars(n int) []expr.Var {
	vs := make([]expr.Var, n)
	for i := range vs {
		vs[i] = db.NewVar()
	}
	return vs
}

// Add appends a raw linear constraint to the store.
func (db *DB) Add(c expr.Constraint) { db.cons = append(db.cons, c) }

// AddCardinality adds the cardinality constraint of Definition 1:
// lo <= |{existing tuples among vars}| <= hi. A side of -1 is
// unconstrained.
func (db *DB) AddCardinality(vars []expr.Var, lo, hi int) {
	s := expr.Sum(vars...)
	if lo == hi && lo >= 0 {
		db.Add(expr.NewConstraint(s, expr.EQ, int64(lo)))
		return
	}
	if lo > 0 {
		db.Add(expr.NewConstraint(s, expr.GE, int64(lo)))
	}
	if hi >= 0 {
		db.Add(expr.NewConstraint(s, expr.LE, int64(hi)))
	}
}

// AddMutex encodes mutual exclusion: exactly one of a, b (Example 5).
func (db *DB) AddMutex(a, b expr.Var) {
	db.Add(expr.NewConstraint(expr.Sum(a, b), expr.EQ, 1))
}

// AddCoexist encodes co-existence: a and b occur together (Example 5).
func (db *DB) AddCoexist(a, b expr.Var) {
	db.Add(expr.NewConstraint(expr.Sum(a).AddTerm(b, -1), expr.EQ, 0))
}

// AddImplies encodes material implication a -> b (Example 5).
func (db *DB) AddImplies(a, b expr.Var) {
	db.Add(expr.NewConstraint(expr.Sum(a).AddTerm(b, -1), expr.LE, 0))
}

// AddExactlyOne encodes that exactly one of vars is true (one side of
// a permutation constraint, Example 3).
func (db *DB) AddExactlyOne(vars []expr.Var) {
	db.Add(expr.NewConstraint(expr.Sum(vars...), expr.EQ, 1))
}

// newDerived allocates a derived variable, records its definition, and
// emits the linear constraints tying it to its arguments.
func (db *DB) newDerived(d Def) expr.Var {
	b := expr.Var(db.NumVars())
	for _, a := range d.Args {
		if a >= b {
			panic(fmt.Sprintf("core: derived b%d references later variable b%d", b, a))
		}
	}
	db.defs = append(db.defs, d)
	m := int64(len(d.Args))
	sum := expr.Sum(d.Args...)
	switch d.Kind {
	case DefAnd:
		// b <= a_i for each i; b >= sum - (m-1).
		for _, a := range d.Args {
			db.Add(expr.NewConstraint(expr.Sum(b).AddTerm(a, -1), expr.LE, 0))
		}
		db.Add(expr.NewConstraint(expr.Sum(b).Add(sum.Neg()), expr.GE, -(m - 1)))
	case DefOr:
		// b >= a_i for each i; b <= sum.
		for _, a := range d.Args {
			db.Add(expr.NewConstraint(expr.Sum(b).AddTerm(a, -1), expr.GE, 0))
		}
		db.Add(expr.NewConstraint(expr.Sum(b).Add(sum.Neg()), expr.LE, 0))
	case DefCountLE:
		// Algorithm 4, case COUNT <= d, with m maybe-tuples and n
		// certain tuples:
		//   d-n+1 <= (d-n+1)*b + sum
		//   m     >= (m-d+n)*b + sum
		dn := int64(d.D - d.N)
		db.Add(expr.NewConstraint(sum.AddTerm(b, dn+1), expr.GE, dn+1))
		db.Add(expr.NewConstraint(sum.AddTerm(b, m-dn), expr.LE, m))
	case DefCountGE:
		// Algorithm 4, case COUNT >= d:
		//   (d-n)*b <= sum
		//   d-n-1 + (m-d+n+1)*b >= sum
		dn := int64(d.D - d.N)
		db.Add(expr.NewConstraint(sum.AddTerm(b, -dn), expr.GE, 0))
		db.Add(expr.NewConstraint(sum.AddTerm(b, -(m-dn+1)), expr.LE, dn-1))
	default:
		panic("core: newDerived on base definition")
	}
	return b
}

// And returns a variable that is true iff all of ext values are true;
// it returns Certain when every input is certain. Used by Intersect,
// Product and Join for lineage.
func (db *DB) And(exts ...Ext) Ext {
	var args []expr.Var
	for _, e := range exts {
		if !e.IsCertain() {
			args = append(args, e.v)
		}
	}
	switch len(args) {
	case 0:
		return Certain
	case 1:
		return Maybe(args[0])
	default:
		return Maybe(db.newDerived(Def{Kind: DefAnd, Args: args}))
	}
}

// Or returns a variable that is true iff any of the ext values is
// true; it returns Certain if any input is certain. Used by Project.
func (db *DB) Or(exts ...Ext) Ext {
	var args []expr.Var
	for _, e := range exts {
		if e.IsCertain() {
			return Certain
		}
		args = append(args, e.v)
	}
	switch len(args) {
	case 0:
		panic("core: Or of no tuples")
	case 1:
		return Maybe(args[0])
	default:
		return Maybe(db.newDerived(Def{Kind: DefOr, Args: args}))
	}
}

// Extend completes a base-variable assignment to all derived
// variables by propagating definitions in allocation order. assign
// must have length NumVars; entries for base variables are inputs,
// entries for derived variables are overwritten.
func (db *DB) Extend(assign []uint8) {
	off := 0
	for _, seg := range db.segments() {
		for i, d := range seg {
			v := off + i
			switch d.Kind {
			case DefBase:
				// input
			case DefAnd:
				val := uint8(1)
				for _, a := range d.Args {
					if assign[a] == 0 {
						val = 0
						break
					}
				}
				assign[v] = val
			case DefOr:
				val := uint8(0)
				for _, a := range d.Args {
					if assign[a] == 1 {
						val = 1
						break
					}
				}
				assign[v] = val
			case DefCountLE, DefCountGE:
				cnt := d.N
				for _, a := range d.Args {
					if assign[a] == 1 {
						cnt++
					}
				}
				val := uint8(0)
				if d.Kind == DefCountLE && cnt <= d.D {
					val = 1
				}
				if d.Kind == DefCountGE && cnt >= d.D {
					val = 1
				}
				assign[v] = val
			}
		}
		off += len(seg)
	}
}

// Valid reports whether the (complete) assignment satisfies every
// constraint in the store.
func (db *DB) Valid(assign []uint8) bool {
	val := func(v expr.Var) bool { return assign[v] == 1 }
	for _, c := range db.cons {
		if !c.Holds(val) {
			return false
		}
	}
	return true
}

// BaseVars returns the ids of all base variables.
func (db *DB) BaseVars() []expr.Var {
	var vs []expr.Var
	for v, derived := range db.derivedFlags() {
		if !derived {
			vs = append(vs, expr.Var(v))
		}
	}
	return vs
}
