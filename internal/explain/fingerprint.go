package explain

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"licm/internal/solver"
)

// Fingerprint computes the canonical fingerprint of a projected
// component: a hash of the sort-normalized constraint matrix plus
// objective vector. Two components receive the same fingerprint
// whenever some renumbering of the variables maps one's constraint
// multiset and objective onto the other's — i.e. the fingerprint is
// invariant under tuple/variable permutation and constraint
// reordering, the form the census counts recurrence by. The objective
// participates deliberately: a min run's negated objective yields a
// different fingerprint, since a max solve cannot answer a min query.
//
// It is not a key for reusing a solved outcome: the search breaks
// branching ties by variable id, so two renumbered copies can take
// different node counts, and refinement ties (below) can give
// matrices that differ one fingerprint. The solver's within-solve
// reuse compares matrices exactly instead.
//
// Variables are ranked by Weisfeiler-Lehman-style signature
// refinement over the variable/constraint incidence graph (seeded
// with objective coefficients, a few rounds of neighbor mixing);
// constraint rows are rewritten over the ranks, sorted, and hashed.
// Symmetric variables tie on the same rank, which is exactly what
// makes permuted copies collide — by design.
func Fingerprint(nVars int, obj []int64, cons []solver.ExplainCon) string {
	rank := varRanks(nVars, obj, cons)

	// Canonical rows: each constraint becomes (op, rhs, sorted
	// (rank, coef) pairs); the objective becomes a pseudo-row of
	// sorted (rank, coef) pairs over its non-zero entries.
	rows := make([][]byte, 0, len(cons)+1)
	for i := range cons {
		c := &cons[i]
		pairs := make([][2]int64, len(c.Vars))
		for k, v := range c.Vars {
			pairs[k] = [2]int64{int64(rank[v]), c.Coef[k]}
		}
		sortPairs(pairs)
		row := make([]byte, 0, 24+16*len(pairs))
		row = appendU64(row, 1) // row kind: constraint
		row = appendU64(row, uint64(c.Op))
		row = appendU64(row, uint64(c.RHS))
		for _, p := range pairs {
			row = appendU64(row, uint64(p[0]))
			row = appendU64(row, uint64(p[1]))
		}
		rows = append(rows, row)
	}
	objPairs := make([][2]int64, 0, len(obj))
	for v := 0; v < nVars; v++ {
		if c := objAt(obj, v); c != 0 {
			objPairs = append(objPairs, [2]int64{int64(rank[v]), c})
		}
	}
	sortPairs(objPairs)
	objRow := make([]byte, 0, 8+16*len(objPairs))
	objRow = appendU64(objRow, 2) // row kind: objective
	for _, p := range objPairs {
		objRow = appendU64(objRow, uint64(p[0]))
		objRow = appendU64(objRow, uint64(p[1]))
	}
	rows = append(rows, objRow)
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i], rows[j]) < 0 })

	h := sha256.New()
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(nVars))
	binary.BigEndian.PutUint64(hdr[8:], uint64(len(cons)))
	h.Write(hdr[:])
	for _, row := range rows {
		binary.BigEndian.PutUint64(hdr[:8], uint64(len(row)))
		h.Write(hdr[:8])
		h.Write(row)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// ComponentFingerprint fingerprints a solver-recorded component.
func ComponentFingerprint(c solver.ExplainComp) string {
	return Fingerprint(c.Vars, c.Obj, c.Cons)
}

// varRanks assigns each variable a permutation-invariant rank:
// signatures start from the objective coefficient and are refined by
// mixing in the signatures of the constraints touching the variable
// (themselves built from the sorted multiset of their terms). After
// the rounds, variables are ranked by sorted signature; structurally
// interchangeable variables share a rank.
func varRanks(nVars int, obj []int64, cons []solver.ExplainCon) []int32 {
	sig := make([]uint64, nVars)
	for v := range sig {
		sig[v] = mix(0x9e3779b97f4a7c15, uint64(objAt(obj, v)))
	}
	csig := make([]uint64, len(cons))
	terms := make([]uint64, 0, 16)
	touch := make([][]uint64, nVars)
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for i := range cons {
			c := &cons[i]
			terms = terms[:0]
			for k, v := range c.Vars {
				terms = append(terms, mix(uint64(c.Coef[k]), sig[v]))
			}
			sortU64(terms)
			h := mix(uint64(c.Op)+3, uint64(c.RHS))
			for _, t := range terms {
				h = mix(h, t)
			}
			csig[i] = h
		}
		for v := range touch {
			touch[v] = touch[v][:0]
		}
		for i := range cons {
			c := &cons[i]
			for k, v := range c.Vars {
				touch[v] = append(touch[v], mix(csig[i], uint64(c.Coef[k])))
			}
		}
		for v := 0; v < nVars; v++ {
			sortU64(touch[v])
			h := sig[v]
			for _, t := range touch[v] {
				h = mix(h, t)
			}
			sig[v] = h
		}
	}
	// Rank = index of the signature among the sorted distinct values.
	uniq := append([]uint64(nil), sig...)
	sortU64(uniq)
	uniq = dedupU64(uniq)
	rank := make([]int32, nVars)
	for v, s := range sig {
		rank[v] = int32(sort.Search(len(uniq), func(i int) bool { return uniq[i] >= s }))
	}
	return rank
}

// mix combines two words with a splitmix64-style finalizer; it is the
// only hash the refinement needs (collisions merely merge ranks,
// which the final SHA-256 over canonical rows tolerates).
func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b + 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// objAt reads an objective coefficient, tolerating a short slice.
func objAt(obj []int64, v int) int64 {
	if v < len(obj) {
		return obj[v]
	}
	return 0
}

func sortU64(a []uint64) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

func dedupU64(a []uint64) []uint64 {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != a[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func sortPairs(p [][2]int64) {
	sort.Slice(p, func(i, j int) bool {
		if p[i][0] != p[j][0] {
			return p[i][0] < p[j][0]
		}
		return p[i][1] < p[j][1]
	})
}

func appendU64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}
