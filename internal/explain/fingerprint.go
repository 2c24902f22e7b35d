package explain

import (
	"crypto/sha256"
	"encoding/hex"

	"licm/internal/solver"
)

// Fingerprint names a projected component by its exact recorded
// matrix: the first 8 bytes, in hex, of the SHA-256 of
// solver.AppendMatrix's encoding (variable count, objective, constraint
// rows in recorded order). Equal fingerprints mean equal matrices,
// barring a collision of the 64-bit hash, so a renumbered or reordered
// copy is another component, as it is to the solver's within-solve
// reuse, whose key is this encoding plus the derived flags. The flags
// stay out: a certificate carries none.
func Fingerprint(nVars int, obj []int64, cons []solver.ExplainCon) string {
	var buf [512]byte // most components encode on the stack
	sum := sha256.Sum256(solver.AppendMatrix(buf[:0], nVars, obj, cons))
	return hex.EncodeToString(sum[:8])
}
