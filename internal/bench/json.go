package bench

import (
	"encoding/json"
	"io"

	"licm/internal/cert"
	"licm/internal/explain"
)

// cellJSON is the stable machine-readable shape of a Cell. Durations
// are nanoseconds with an explicit _ns suffix, matching the dur_ns
// convention of the obs trace events, so trace post-processors can
// join figures and traces without unit guessing.
type cellJSON struct {
	Scheme string `json:"scheme"`
	Query  string `json:"query"`
	K      int    `json:"k"`

	LMin       int64 `json:"l_min"`
	LMax       int64 `json:"l_max"`
	LMinFound  int64 `json:"l_min_found"`
	LMaxFound  int64 `json:"l_max_found"`
	LMinProven bool  `json:"l_min_proven"`
	LMaxProven bool  `json:"l_max_proven"`
	MMin       int64 `json:"m_min"`
	MMax       int64 `json:"m_max"`
	// Quality is "exact", "proven-interval" (proven outer bounds only)
	// or "failed" (no proven bound on some side; LICM series unusable).
	Quality string `json:"quality"`

	LModelNs int64 `json:"l_model_ns"`
	LQueryNs int64 `json:"l_query_ns"`
	LSolveNs int64 `json:"l_solve_ns"`
	MCTimeNs int64 `json:"mc_time_ns"`

	VarsModel  int `json:"vars_model"`
	ConsModel  int `json:"cons_model"`
	VarsQuery  int `json:"vars_query"`
	ConsQuery  int `json:"cons_query"`
	VarsPruned int `json:"vars_pruned"`
	ConsPruned int `json:"cons_pruned"`

	Nodes        int64 `json:"nodes"`
	LPSolves     int64 `json:"lp_solves"`
	Propagations int64 `json:"propagations"`
	// Components and MaxCompVars are populated on every cell whose
	// solves started — degraded ones included — because the explain
	// recorder registers the decomposition before any search work.
	Components   int     `json:"components"`
	MaxCompVars  int     `json:"max_comp_vars"`
	PruneTimeNs  int64   `json:"prune_time_ns"`
	PresolveNs   int64   `json:"presolve_time_ns"`
	SearchNs     int64   `json:"search_time_ns"`
	PruneRatio   float64 `json:"prune_ratio"`
	MCAcceptance float64 `json:"mc_acceptance"`

	// Explain carries the cell's licm-explain/1 report when the run
	// was configured with Explain (licmexp -explain-json).
	Explain *explain.Report `json:"explain,omitempty"`
	// Certs carries the cell's licm-cert/1 certificates when the run
	// was configured with Certify (licmexp -certify).
	Certs []*cert.Certificate `json:"certs,omitempty"`
}

func toCellJSON(c Cell) cellJSON {
	return cellJSON{
		Scheme:       string(c.Scheme),
		Query:        c.Query,
		K:            c.K,
		LMin:         c.LMin,
		LMax:         c.LMax,
		LMinFound:    c.LMinFound,
		LMaxFound:    c.LMaxFound,
		LMinProven:   c.LMinProven,
		LMaxProven:   c.LMaxProven,
		MMin:         c.MMin,
		MMax:         c.MMax,
		Quality:      c.Quality,
		LModelNs:     c.LModel.Nanoseconds(),
		LQueryNs:     c.LQuery.Nanoseconds(),
		LSolveNs:     c.LSolve.Nanoseconds(),
		MCTimeNs:     c.MCTime.Nanoseconds(),
		VarsModel:    c.VarsModel,
		ConsModel:    c.ConsModel,
		VarsQuery:    c.VarsQuery,
		ConsQuery:    c.ConsQuery,
		VarsPruned:   c.VarsPruned,
		ConsPruned:   c.ConsPruned,
		Nodes:        c.Nodes,
		LPSolves:     c.LPSolves,
		Propagations: c.Propagations,
		Components:   c.Components,
		MaxCompVars:  c.MaxCompVars,
		Explain:      c.Explain,
		Certs:        c.Certs,
		PruneTimeNs:  c.PruneTime.Nanoseconds(),
		PresolveNs:   c.PresolveTime.Nanoseconds(),
		SearchNs:     c.SearchTime.Nanoseconds(),
		PruneRatio:   c.PruneRatio,
		MCAcceptance: c.MCAcceptance,
	}
}

// WriteCellsJSON writes the cells as an indented JSON array, each cell
// carrying the Figure 5/6/7 series plus the solve trace summary
// (nodes, LP solves, propagations, phase times, prune ratio).
func WriteCellsJSON(w io.Writer, cells []Cell) error {
	out := make([]cellJSON, len(cells))
	for i, c := range cells {
		out[i] = toCellJSON(c)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
