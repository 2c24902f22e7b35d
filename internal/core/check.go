package core

import (
	"licm/internal/check"
)

// Check runs the static diagnostics pass (internal/check) over the
// database's constraint store. Derived (lineage) variables are marked
// from the recorded definitions, so the pass can flag dangling
// lineage — a derived variable whose defining constraints were lost
// (or never emitted) and whose value is therefore unconstrained
// instead of determined by its arguments.
//
// The objective is not part of a DB (it comes from the query at solve
// time); to vet a full instance, project the store into a
// solver.Problem and use Options.Check or Problem.RunCheck.
func (db *DB) Check() check.Report {
	return check.Check(check.Store{
		NumVars:     db.NumVars(),
		Constraints: db.cons,
		Derived:     db.derivedFlags(),
	})
}
