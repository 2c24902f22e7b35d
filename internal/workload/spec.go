// Package workload is the randomized query observatory: a seeded
// generator that produces diverse aggregate queries (varying
// selections, count predicates, join shapes and aggregate ops) over
// the possibilistic stores, a runner that answers each under the
// anytime supervisor and scores it with wall latency plus a
// q-error-style bound-tightness metric against ground truth, and the
// strict licm-load/1 result schema the CI workload gate diffs.
//
// The paper's evaluation is three fixed queries; this package is the
// workload-diversity counterpart the ROADMAP asks for, shaped like
// the SEICS per-query latency + q-error harness: every query becomes
// one record (latency, proven bounds, ground truth, tightness,
// degradation tag, component fingerprints) and a run ends with one
// summary (latency and tightness quantiles, degradation counts).
package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"licm/internal/core"
	"licm/internal/encode"
	"licm/internal/expr"
	"licm/internal/queries"
)

// SpecSchema versions the replayable query-set artifact
// (licmgen -queries, licmload -replay).
const SpecSchema = "licm-queries/1"

// Spec is one randomized aggregate query, fully self-contained: the
// predicate windows are stored as explicit inclusive ranges (not
// selectivities), so a spec file replays identically on any machine.
//
// Kinds follow the paper's query shapes; Agg extends them with a
// second aggregate op:
//
//	q1/count  COUNT of Pa-transactions with >= 1 Pb item
//	q1/sum    SUM of Pb-item prices over distinct Pa-transaction pairs
//	q2/count  COUNT of Pa-transactions with >= X Pb and >= Y Pc items
//	q3/count  COUNT of Pa-transactions sharing an item with >= X
//	          Pb-transactions (join shape)
type Spec struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"` // q1 | q2 | q3
	Agg  string `json:"agg"`  // count | sum
	PaLo int64  `json:"pa_lo"`
	PaHi int64  `json:"pa_hi"`
	PbLo int64  `json:"pb_lo"`
	PbHi int64  `json:"pb_hi"`
	PcLo int64  `json:"pc_lo"`
	PcHi int64  `json:"pc_hi"`
	X    int    `json:"x"`
	Y    int    `json:"y"`
}

// Name labels the spec in records, traces and census reports.
func (s Spec) Name() string { return fmt.Sprintf("%s-%s#%d", s.Kind, s.Agg, s.ID) }

// pa/pb/pc return the predicate windows as queries.Pred.
func (s Spec) pa() queries.Pred { return queries.Pred{Lo: s.PaLo, Hi: s.PaHi} }
func (s Spec) pb() queries.Pred { return queries.Pred{Lo: s.PbLo, Hi: s.PbHi} }
func (s Spec) pc() queries.Pred { return queries.Pred{Lo: s.PcLo, Hi: s.PcHi} }

// Validate checks the structural invariants of one spec.
func (s Spec) Validate() error {
	switch s.Kind {
	case "q1":
		if s.Agg != "count" && s.Agg != "sum" {
			return fmt.Errorf("workload: spec %d: q1 agg %q, want count or sum", s.ID, s.Agg)
		}
	case "q2", "q3":
		if s.Agg != "count" {
			return fmt.Errorf("workload: spec %d: %s agg %q, want count", s.ID, s.Kind, s.Agg)
		}
	default:
		return fmt.Errorf("workload: spec %d: unknown kind %q", s.ID, s.Kind)
	}
	if s.PaLo > s.PaHi || s.PbLo > s.PbHi {
		return fmt.Errorf("workload: spec %d: empty predicate window", s.ID)
	}
	if s.Kind == "q2" {
		if s.PcLo > s.PcHi {
			return fmt.Errorf("workload: spec %d: empty Pc window", s.ID)
		}
		if s.X < 1 || s.Y < 1 {
			return fmt.Errorf("workload: spec %d: q2 thresholds X=%d Y=%d, want >= 1", s.ID, s.X, s.Y)
		}
	}
	if s.Kind == "q3" && s.X < 1 {
		return fmt.Errorf("workload: spec %d: q3 threshold X=%d, want >= 1", s.ID, s.X)
	}
	return nil
}

// GenerateSpecs draws n randomized query specs, deterministic in
// seed. locRange and priceRange are the attribute domains of the
// dataset the specs will run against (licmgen's defaults are 1000 and
// 40). The mix covers all four kind/agg shapes with randomized
// selectivities, window offsets and count thresholds.
func GenerateSpecs(n int, seed, locRange, priceRange int64) []Spec {
	r := rand.New(rand.NewSource(seed))
	loc := func(minFrac, maxFrac float64) queries.Pred {
		frac := minFrac + r.Float64()*(maxFrac-minFrac)
		return queries.RangeWithSelectivity(locRange, frac, r.Int63n(locRange))
	}
	price := func() queries.Pred {
		frac := 0.1 + r.Float64()*0.4
		return queries.RangeWithSelectivity(priceRange, frac, r.Int63n(priceRange))
	}
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		sp := Spec{ID: i, Agg: "count"}
		switch roll := r.Float64(); {
		case roll < 0.30:
			sp.Kind = "q1"
		case roll < 0.50:
			sp.Kind = "q1"
			sp.Agg = "sum"
		case roll < 0.75:
			sp.Kind = "q2"
			sp.X = 1 + r.Intn(4)
			sp.Y = 1 + r.Intn(3)
		default:
			sp.Kind = "q3"
			sp.X = 1 + r.Intn(3)
		}
		var pa, pb, pc queries.Pred
		switch sp.Kind {
		case "q3":
			// Join shape: both predicates range over locations; wider
			// windows so the popularity threshold stays reachable.
			pa, pb = loc(0.02, 0.3), loc(0.02, 0.3)
		default:
			pa, pb = loc(0.005, 0.2), price()
			if sp.Kind == "q2" {
				pc = price()
			}
		}
		sp.PaLo, sp.PaHi = pa.Lo, pa.Hi
		sp.PbLo, sp.PbHi = pb.Lo, pb.Hi
		sp.PcLo, sp.PcHi = pc.Lo, pc.Hi
		specs = append(specs, sp)
	}
	return specs
}

// specLine is the JSONL wire form of one spec.
type specLine struct {
	Schema string `json:"schema"`
	Spec
}

// WriteSpecs writes a replayable query-set file, one licm-queries/1
// JSON line per spec.
func WriteSpecs(w io.Writer, specs []Spec) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range specs {
		if err := enc.Encode(specLine{Schema: SpecSchema, Spec: sp}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpecs parses a query-set file, rejecting wrong schema tags,
// unknown fields and invalid specs — a replay artifact that drifted
// from the generator fails loudly.
func ReadSpecs(r io.Reader) ([]Spec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 16<<20)
	var out []Spec
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var sl specLine
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sl); err != nil {
			return nil, fmt.Errorf("workload: specs line %d: %w", line, err)
		}
		if !strings.HasPrefix(sl.Schema, "licm-queries/") {
			return nil, fmt.Errorf("workload: specs line %d: schema %q, want %s", line, sl.Schema, SpecSchema)
		}
		if sl.Schema != SpecSchema {
			return nil, fmt.Errorf("workload: specs line %d: unsupported schema %q (this reader understands %s)", line, sl.Schema, SpecSchema)
		}
		if err := sl.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("workload: specs line %d: %w", line, err)
		}
		out = append(out, sl.Spec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Build translates the spec over enc, growing its constraint store
// (so each query builds on its own fork of the base encoding, as
// Config.Encoder hands out), and returns the aggregate objective plus the
// deterministic per-world evaluator used for independent ground-truth
// cross-checks (the role the paper's SQL Server plays for MC).
func (s Spec) Build(enc *encode.Encoded) (expr.Lin, func(*queries.World) int64, error) {
	if err := s.Validate(); err != nil {
		return expr.Lin{}, nil, err
	}
	if s.Agg == "sum" {
		return s.buildSum(enc)
	}
	var q queries.Query
	switch s.Kind {
	case "q1":
		q = queries.Q1{Pa: s.pa(), Pb: s.pb()}
	case "q2":
		q = queries.Q2{Pa: s.pa(), Pb: s.pb(), Pc: s.pc(), X: s.X, Y: s.Y}
	default:
		q = queries.Q3{Pa: s.pa(), Pb: s.pb(), X: s.X}
	}
	rel, err := q.BuildLICM(enc)
	if err != nil {
		return expr.Lin{}, nil, err
	}
	return core.CountStar(rel), q.Eval, nil
}

// buildSum is the q1/sum shape: SUM of item prices over the distinct
// (Pa-transaction, Pb-item) pairs. The pair projection dedups
// maybe-tuples covering the same pair (a generalized transaction can
// admit one item through several nodes) so the objective and the
// per-world evaluator agree on set semantics.
func (s Spec) buildSum(enc *encode.Encoded) (expr.Lin, func(*queries.World) int64, error) {
	pa, pb := s.pa(), s.pb()
	tids := make(map[int64]bool)
	for i := 0; i < enc.Trans.Len(); i++ {
		row := enc.Trans.RowAt(i)
		if pa.Match(row.Int("Location")) {
			tids[row.Int("TID")] = true
		}
	}
	items := make(map[int64]bool)
	for i := 0; i < enc.Items.Len(); i++ {
		row := enc.Items.RowAt(i)
		if pb.Match(row.Int("Price")) {
			items[row.Int("Item")] = true
		}
	}
	var ti *core.Relation
	if enc.TransItem != nil {
		ti = core.Select(enc.TransItem, func(row core.Row) bool {
			return tids[row.Int("TID")] && items[row.Int("Item")]
		})
	} else {
		ti = enc.BuildTransItem(tids, items)
	}
	pairs := core.Project(enc.DB, ti, "TID", "Item")
	priced := core.Join(enc.DB, pairs, enc.Items, "Item")
	obj, err := core.SumOf(priced, "Price")
	if err != nil {
		return expr.Lin{}, nil, err
	}
	eval := func(w *queries.World) int64 {
		paSet := make(map[int64]bool)
		for i := 0; i < w.Trans.Len(); i++ {
			r := w.Trans.RowAt(i)
			if pa.Match(r.Int("Location")) {
				paSet[r.Int("TID")] = true
			}
		}
		price := make(map[int64]int64)
		pbSet := make(map[int64]bool)
		for i := 0; i < w.Items.Len(); i++ {
			r := w.Items.RowAt(i)
			price[r.Int("Item")] = r.Int("Price")
			if pb.Match(r.Int("Price")) {
				pbSet[r.Int("Item")] = true
			}
		}
		seen := make(map[[2]int64]bool)
		var sum int64
		for i := 0; i < w.TransItem.Len(); i++ {
			r := w.TransItem.RowAt(i)
			tid, it := r.Int("TID"), r.Int("Item")
			key := [2]int64{tid, it}
			if paSet[tid] && pbSet[it] && !seen[key] {
				seen[key] = true
				sum += price[it]
			}
		}
		return sum
	}
	return obj, eval, nil
}
