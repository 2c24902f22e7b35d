// Package cert defines the licm-cert/1 certificate format and its
// independent verifier: the third static-analysis layer of the repo
// (after internal/check over data and internal/analysis over source),
// this one over *solver artifacts*.
//
// A certificate is the machine-checkable record of one solver run's
// optimality claim: per component, the projected constraint matrix
// the claim is about (keyed by the same fingerprint the explain layer
// uses), an incumbent witness, and a branch tree whose leaves are
// closed by justifications replayable in exact rational
// arithmetic — weak-duality bounds (dual), exact feasible points with
// a one-unit dominance bound (intopt), and Farkas infeasibility
// vectors (farkas). Verify replays every justification in
// math/big.Rat and checks branch-tree coverage of the full 0/1
// space, so a verdict of "verified" is sound even though the solver
// searched in floats.
//
// The verifier deliberately re-implements the leaf arithmetic rather
// than calling into internal/solver's emitter-side checks: two
// independent implementations of the soundness-critical math mean a
// shared bug cannot silently bless a wrong optimum — the point of
// certifying at all (the ROADMAP's solve-cache and warm-start work
// rewrites exactly the code that produces these claims).
package cert

import (
	"fmt"
	"math/big"

	"licm/internal/explain"
	"licm/internal/expr"
	"licm/internal/solver"
)

// Schema identifies the certificate format. The verifier rejects
// records with any other value, so schema drift fails loudly.
const Schema = "licm-cert/1"

// Leaf kinds and component statuses (mirrors internal/solver's
// constants; duplicated by design — see the package comment).
const (
	LeafDual   = "dual"
	LeafIntopt = "intopt"
	LeafFarkas = "farkas"

	StatusOptimal    = "optimal"
	StatusInfeasible = "infeasible"
	StatusSkipped    = "skipped"
)

// Certificate is one solver run's certificate (one JSONL line).
// Values are in the solver's internal maximization frame: a "min"
// run's base/value/objectives are the negated ones, exactly as the
// solver recorded them (negate to recover the reported minimum).
type Certificate struct {
	Schema string `json:"schema"`
	// Query/Scheme/K label the solve, when the caller knows them.
	Query  string `json:"query,omitempty"`
	Scheme string `json:"scheme,omitempty"`
	K      int    `json:"k,omitempty"`

	Sense string `json:"sense"`
	// Base is the run value not accounted to any component (objective
	// constant plus presolve fixings); Value the run's final value.
	// When Proven with no error, base + sum(component values) must
	// equal value exactly.
	Base   int64  `json:"base"`
	Value  int64  `json:"value"`
	Proven bool   `json:"proven"`
	Err    string `json:"err,omitempty"`

	Comps []Comp `json:"comps"`
}

// Comp is one component's certificate.
type Comp struct {
	Index int `json:"index"`
	// Fingerprint is the exact matrix hash (explain.Fingerprint) of
	// (vars, obj, cons): the identity the solver's reuse key extends,
	// and the binding between this proof and the matrix it talks about.
	Fingerprint string  `json:"fingerprint"`
	Vars        int     `json:"vars"`
	Cons        []Con   `json:"cons"`
	Obj         []int64 `json:"obj"`

	Status string `json:"status"`
	Skip   string `json:"skip,omitempty"`

	Value   int64  `json:"value,omitempty"`
	Witness []int8 `json:"witness,omitempty"`
	Tree    *Node  `json:"tree,omitempty"`
}

// Con is one constraint row over local variable ids.
type Con struct {
	Vars []int32 `json:"vars"`
	Coef []int64 `json:"coef"`
	Op   string  `json:"op"` // "le" | "ge" | "eq"
	RHS  int64   `json:"rhs"`
}

// Node is a proof-tree node. Branch nodes carry Var (>= 0) and both
// children; leaves carry Var == -1 and a Leaf kind. Y holds one
// exact rational multiplier per constraint row as big.Rat strings
// ("p/q" or an integer); an absent Y is the all-zero vector. Bound
// is the leaf's claimed weak-duality box bound; X an intopt leaf's
// feasible 0/1 point.
type Node struct {
	Var  int32  `json:"var"`
	Zero *Node  `json:"zero,omitempty"`
	One  *Node  `json:"one,omitempty"`
	Leaf string `json:"leaf,omitempty"`

	Y     []string `json:"y,omitempty"`
	X     []int8   `json:"x,omitempty"`
	Bound string   `json:"bound,omitempty"`
}

// opNames maps expr.Op values to their wire form.
func opName(op expr.Op) (string, error) {
	switch op {
	case expr.LE:
		return "le", nil
	case expr.GE:
		return "ge", nil
	case expr.EQ:
		return "eq", nil
	default:
		return "", fmt.Errorf("cert: unknown operator %d", op)
	}
}

func parseOp(s string) (expr.Op, error) {
	switch s {
	case "le":
		return expr.LE, nil
	case "ge":
		return expr.GE, nil
	case "eq":
		return expr.EQ, nil
	default:
		return 0, fmt.Errorf("cert: unknown operator %q", s)
	}
}

// Build converts certified runs (solver.Certify) into certificates,
// one per run, labeled with the caller's query/scheme/k. No runs
// yields nil.
func Build(query, scheme string, k int, runs []solver.CertRun) ([]*Certificate, error) {
	if len(runs) == 0 {
		return nil, nil
	}
	out := make([]*Certificate, 0, len(runs))
	for _, run := range runs {
		c := &Certificate{
			Schema: Schema,
			Query:  query,
			Scheme: scheme,
			K:      k,
			Sense:  run.Sense,
			Base:   run.Base,
			Value:  run.Value,
			Proven: run.Proven,
			Err:    run.Err,
			Comps:  make([]Comp, 0, len(run.Comps)),
		}
		for i := range run.Comps {
			cc, err := buildComp(&run.Comps[i])
			if err != nil {
				return nil, err
			}
			c.Comps = append(c.Comps, cc)
		}
		out = append(out, c)
	}
	return out, nil
}

func buildComp(sc *solver.CertComp) (Comp, error) {
	cc := Comp{
		Index:       sc.Index,
		Fingerprint: explain.Fingerprint(sc.Vars, sc.Obj, sc.Cons),
		Vars:        sc.Vars,
		Obj:         sc.Obj,
		Status:      sc.Status,
		Skip:        sc.Skip,
		Value:       sc.Value,
		Witness:     sc.Witness,
	}
	if cc.Obj == nil {
		cc.Obj = []int64{}
	}
	cc.Cons = make([]Con, len(sc.Cons))
	for i, con := range sc.Cons {
		op, err := opName(con.Op)
		if err != nil {
			return Comp{}, err
		}
		cc.Cons[i] = Con{Vars: con.Vars, Coef: con.Coef, Op: op, RHS: con.RHS}
		if cc.Cons[i].Vars == nil {
			cc.Cons[i].Vars = []int32{}
			cc.Cons[i].Coef = []int64{}
		}
	}
	var err error
	cc.Tree, err = buildNode(sc.Tree)
	if err != nil {
		return Comp{}, err
	}
	return cc, nil
}

func buildNode(sn *solver.CertNode) (*Node, error) {
	if sn == nil {
		return nil, nil
	}
	nd := &Node{Var: sn.Var, Leaf: sn.Leaf, X: sn.X}
	if sn.Y != nil {
		nd.Y = make([]string, len(sn.Y))
		for i, y := range sn.Y {
			if y == nil {
				nd.Y[i] = "0"
				continue
			}
			nd.Y[i] = y.RatString()
		}
	}
	if sn.Bound != nil {
		nd.Bound = sn.Bound.RatString()
	}
	var err error
	if nd.Zero, err = buildNode(sn.Zero); err != nil {
		return nil, err
	}
	if nd.One, err = buildNode(sn.One); err != nil {
		return nil, err
	}
	return nd, nil
}

// parseRat parses a big.Rat wire string strictly.
func parseRat(s string) (*big.Rat, error) {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return nil, fmt.Errorf("cert: malformed rational %q", s)
	}
	return r, nil
}
