package core

import (
	"licm/internal/expr"
)

// Instantiate realizes a relation in the possible world described by
// the (complete) assignment: tuples whose Ext evaluates to 0 are
// eliminated and the Ext column is dropped (Section III).
func Instantiate(r *Relation, assign []uint8) [][]Value {
	var out [][]Value
	for _, t := range r.Tuples {
		if t.Ext.IsCertain() || assign[t.Ext.Var()] == 1 {
			out = append(out, t.Vals)
		}
	}
	return out
}

// World returns the complete assignment obtained by extending the
// given base-variable assignment through every derived definition.
// base maps base variable ids to values; unlisted base variables
// default to 0.
func (db *DB) World(base map[expr.Var]uint8) []uint8 {
	assign := make([]uint8, db.NumVars())
	for v, val := range base {
		assign[v] = val
	}
	db.Extend(assign)
	return assign
}

// EnumWorlds enumerates every valid possible world of the database by
// exhausting assignments of the base variables, extending each through
// the derived definitions, and keeping those that satisfy the
// constraint store. It is exponential in the number of base variables
// and exists as a test oracle and for tiny databases; it panics beyond
// 24 base variables.
func (db *DB) EnumWorlds() [][]uint8 {
	base := db.BaseVars()
	if len(base) > 24 {
		panic("core: EnumWorlds beyond 24 base variables")
	}
	var worlds [][]uint8
	n := db.NumVars()
	for mask := 0; mask < 1<<len(base); mask++ {
		assign := make([]uint8, n)
		for i, v := range base {
			if mask&(1<<i) != 0 {
				assign[v] = 1
			}
		}
		db.Extend(assign)
		if db.Valid(assign) {
			worlds = append(worlds, assign)
		}
	}
	return worlds
}

// DeterministicExtension reports whether, for the given base
// assignment, the extension computed by Extend is the unique
// assignment of derived variables satisfying the store. This is the
// paper's operator-determinism property ("given an assignment to the
// variables in the input tables ... there exists only one correct
// assignment of the variables in the output tuples"); it is exercised
// by property tests.
func (db *DB) DeterministicExtension(base map[expr.Var]uint8) bool {
	want := db.World(base)
	if !db.Valid(want) {
		// The base assignment itself violates the store; determinism
		// is vacuous here.
		return true
	}
	derived := make([]expr.Var, 0)
	for v, isDerived := range db.derivedFlags() {
		if isDerived {
			derived = append(derived, expr.Var(v))
		}
	}
	if len(derived) > 20 {
		panic("core: DeterministicExtension beyond 20 derived variables")
	}
	count := 0
	assign := make([]uint8, db.NumVars())
	copy(assign, want)
	for mask := 0; mask < 1<<len(derived); mask++ {
		for i, v := range derived {
			if mask&(1<<i) != 0 {
				assign[v] = 1
			} else {
				assign[v] = 0
			}
		}
		if db.Valid(assign) {
			count++
			for _, v := range derived {
				if assign[v] != want[v] {
					return false
				}
			}
		}
	}
	return count == 1
}
