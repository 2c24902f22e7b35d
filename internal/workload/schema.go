package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Schema versions the workload result stream: per-query "query"
// records in run order followed by exactly one "summary" record.
const Schema = "licm-load/1"

// Answer is one measured answer of a workload spec: the supervisor's
// ladder tag, the bounds it reports and the shape of the solve behind
// them. Solve produces it for licmload's local path and for licmd's
// workers; a licm-load/1 Record and a licm-serve/1 Response embed it,
// so both streams carry the same fields under the same names. Zero
// values are omitted only where they mean "absent": no quality on a
// licmd typed error, no request id on a local solve, not shed, not
// infeasible.
type Answer struct {
	// Quality is the supervisor's ladder tag: exact, proven-interval,
	// sampled or failed. A failed ladder never crosses the wire: licmd
	// answers it with a typed error and no quality.
	Quality string `json:"quality,omitempty"`
	// LatencyNs is the answer's wall time from the store fork to the
	// supervised answer: fork, query build and supervised solve, or on
	// licmd's shed path fork, build and the Monte-Carlo estimate. A
	// remote (-target) record carries the server's figure, so admission
	// wait and transport are not part of it.
	LatencyNs int64 `json:"latency_ns"`
	// RequestID is the licmd request id of a served answer; empty for
	// local solves. It correlates a record with the server's
	// forensics: the request_id trace attribute and the
	// /debug/licm/requests flight-recorder entry.
	RequestID string `json:"request_id,omitempty"`
	// Shed marks an answer produced on licmd's overload shed path: the
	// query skipped the solver queue and was answered with a
	// Monte-Carlo estimate at the sampled ladder rung.
	Shed bool `json:"shed,omitempty"`

	// Lb/Ub are the reported aggregate bounds; Proven says whether
	// they are proven outer bounds (exact or proven-interval quality).
	Lb         int64 `json:"lb"`
	Ub         int64 `json:"ub"`
	Proven     bool  `json:"proven"`
	Infeasible bool  `json:"infeasible,omitempty"`

	// Problem shape after query building, and the component count and
	// distinct fingerprints of the solve's explain report (all zero on
	// the shed path, which runs no solve).
	Vars                 int `json:"vars"`
	Cons                 int `json:"cons"`
	Components           int `json:"components"`
	DistinctFingerprints int `json:"distinct_fingerprints"`
}

// provenQuality reports whether a ladder tag claims proven bounds.
func provenQuality(q string) bool { return q == "exact" || q == "proven-interval" }

// Record is one answered workload query: what was asked, the measured
// answer (how fast, how trustworthy, what bounds), and how tight the
// proven bounds are against ground truth.
type Record struct {
	Schema string `json:"schema"`
	Type   string `json:"type"` // always "query"
	Name   string `json:"name"`
	Spec   Spec   `json:"spec"`
	Answer

	// GtSource says where ground truth came from: "exact" (independent
	// reference solve proved both optima) or "mc" (Monte-Carlo range —
	// a subset of the true answer range, so containment is still a
	// sound check). GtMin/GtMax are that ground-truth range.
	GtSource string `json:"gt_source"`
	GtMin    int64  `json:"gt_min"`
	GtMax    int64  `json:"gt_max"`
	// McMin/McMax are the sampled cross-check range, recorded even
	// when ground truth is exact (the Flesca-style consistency check:
	// every sampled world's answer must lie inside proven bounds).
	McMin int64 `json:"mc_min"`
	McMax int64 `json:"mc_max"`

	// Qerr is the q-error-style bound tightness
	// max((ub+1)/(gtMax+1), (gtMin+1)/(lb+1)), clamped to >= 1 and
	// computed only for proven records (0 otherwise). 1.0 means the
	// proven bounds coincide with ground truth; for an exactly solved
	// query with exact ground truth it must be exactly 1.0.
	Qerr float64 `json:"qerr"`

	// Violations are hard consistency failures (ground truth or a
	// sampled world outside proven bounds, exact-vs-exact mismatch).
	// Any violation fails the run.
	Violations []string `json:"violations,omitempty"`
}

// Summary is the run-level rollup, the last line of a licm-load/1
// stream and the unit the CI workload gate diffs.
type Summary struct {
	Schema string `json:"schema"`
	Type   string `json:"type"` // always "summary"
	Label  string `json:"label,omitempty"`

	// Environment and run parameters (the diff's identity check).
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Trans      int    `json:"trans"`
	Items      int    `json:"items"`
	Scheme     string `json:"scheme"`
	K          int    `json:"k"`
	M          int    `json:"m,omitempty"`
	Seed       int64  `json:"seed"`
	Queries    int    `json:"queries"`
	DeadlineNs int64  `json:"deadline_ns"`
	MCSamples  int    `json:"mc_samples"`

	WallNs int64 `json:"wall_ns"`

	// Degradation census over the ladder tags.
	ByQuality map[string]int `json:"by_quality"`

	// Latency quantiles (nearest-rank) over all queries.
	LatencyP50Ns int64 `json:"latency_p50_ns"`
	LatencyP95Ns int64 `json:"latency_p95_ns"`
	LatencyP99Ns int64 `json:"latency_p99_ns"`

	// Tightness quantiles over proven records (qerr > 0).
	QerrP50 float64 `json:"qerr_p50"`
	QerrP90 float64 `json:"qerr_p90"`
	QerrMax float64 `json:"qerr_max"`

	// Proven counts: records with proven bounds, records solved
	// exactly, and records whose ground truth was an exact reference
	// solve.
	Proven     int `json:"proven"`
	Exact      int `json:"exact"`
	ExactRef   int `json:"exact_ref"`
	Violations int `json:"violations"`

	// Component census across the run (the cache-design feed).
	Components           int64   `json:"components"`
	DistinctFingerprints int     `json:"distinct_fingerprints"`
	CacheHitRate         float64 `json:"cache_hit_rate"`
}

// Run is one parsed licm-load/1 stream.
type Run struct {
	Records []Record
	Summary *Summary
}

// Validate checks one record's internal consistency.
func (r *Record) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("workload: record schema %q, want %s", r.Schema, Schema)
	}
	if r.Type != "query" {
		return fmt.Errorf("workload: record type %q, want query", r.Type)
	}
	if err := r.Spec.Validate(); err != nil {
		return err
	}
	if r.Name != r.Spec.Name() {
		return fmt.Errorf("workload: record name %q does not match spec %q", r.Name, r.Spec.Name())
	}
	switch r.Quality {
	case "exact", "proven-interval", "sampled", "failed":
	default:
		return fmt.Errorf("workload: record %s: unknown quality %q", r.Name, r.Quality)
	}
	if r.LatencyNs < 0 {
		return fmt.Errorf("workload: record %s: negative latency", r.Name)
	}
	if provenQuality(r.Quality) != r.Proven {
		return fmt.Errorf("workload: record %s: proven=%v inconsistent with quality %q", r.Name, r.Proven, r.Quality)
	}
	if r.Proven && !r.Infeasible && r.Lb > r.Ub {
		return fmt.Errorf("workload: record %s: proven bounds inverted [%d, %d]", r.Name, r.Lb, r.Ub)
	}
	switch r.GtSource {
	case "exact", "mc":
	case "none":
		// Infeasible or failed records may carry no ground truth.
	default:
		return fmt.Errorf("workload: record %s: unknown gt_source %q", r.Name, r.GtSource)
	}
	if r.Proven && !r.Infeasible {
		if r.Qerr < 1 {
			return fmt.Errorf("workload: record %s: proven record with qerr %g < 1", r.Name, r.Qerr)
		}
		if r.Quality == "exact" && r.GtSource == "exact" && !floatEq(r.Qerr, 1) {
			return fmt.Errorf("workload: record %s: exact solve vs exact ground truth has qerr %g != 1", r.Name, r.Qerr)
		}
	} else if !floatEq(r.Qerr, 0) {
		return fmt.Errorf("workload: record %s: unproven record with qerr %g != 0", r.Name, r.Qerr)
	}
	return nil
}

// Validate checks the summary's internal consistency.
func (s *Summary) Validate() error {
	if s.Schema != Schema {
		return fmt.Errorf("workload: summary schema %q, want %s", s.Schema, Schema)
	}
	if s.Type != "summary" {
		return fmt.Errorf("workload: summary type %q, want summary", s.Type)
	}
	n := 0
	for q, c := range s.ByQuality {
		switch q {
		case "exact", "proven-interval", "sampled", "failed":
		default:
			return fmt.Errorf("workload: summary by_quality has unknown tag %q", q)
		}
		if c < 0 {
			return fmt.Errorf("workload: summary by_quality[%s] negative", q)
		}
		n += c
	}
	if n != s.Queries {
		return fmt.Errorf("workload: summary by_quality sums to %d, queries is %d", n, s.Queries)
	}
	if s.Exact > s.Proven || s.Proven > s.Queries {
		return fmt.Errorf("workload: summary counts inconsistent (exact %d, proven %d, queries %d)", s.Exact, s.Proven, s.Queries)
	}
	if s.Violations < 0 {
		return fmt.Errorf("workload: summary violations negative")
	}
	return nil
}

// Validate checks the whole run: every record, the summary, and their
// agreement (counts, violations, quality census).
func (run *Run) Validate() error {
	if run.Summary == nil {
		return fmt.Errorf("workload: run has no summary record")
	}
	byQ := map[string]int{}
	viol, exact, proven := 0, 0, 0
	seen := map[int]bool{}
	for i := range run.Records {
		r := &run.Records[i]
		if err := r.Validate(); err != nil {
			return err
		}
		if seen[r.Spec.ID] {
			return fmt.Errorf("workload: duplicate record for spec %d", r.Spec.ID)
		}
		seen[r.Spec.ID] = true
		byQ[r.Quality]++
		viol += len(r.Violations)
		if r.Quality == "exact" {
			exact++
		}
		if r.Proven {
			proven++
		}
	}
	s := run.Summary
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Queries != len(run.Records) {
		return fmt.Errorf("workload: summary queries %d, stream has %d records", s.Queries, len(run.Records))
	}
	for q, c := range byQ {
		if s.ByQuality[q] != c {
			return fmt.Errorf("workload: summary by_quality[%s]=%d, records say %d", q, s.ByQuality[q], c)
		}
	}
	if s.Violations != viol {
		return fmt.Errorf("workload: summary violations %d, records carry %d", s.Violations, viol)
	}
	if s.Exact != exact || s.Proven != proven {
		return fmt.Errorf("workload: summary exact/proven %d/%d, records say %d/%d", s.Exact, s.Proven, exact, proven)
	}
	return nil
}

// WriteRecord appends one record line.
func WriteRecord(w io.Writer, r *Record) error {
	return json.NewEncoder(w).Encode(r)
}

// WriteSummary appends the summary line.
func WriteSummary(w io.Writer, s *Summary) error {
	return json.NewEncoder(w).Encode(s)
}

// WriteRun writes a complete licm-load/1 stream.
func WriteRun(w io.Writer, run *Run) error {
	bw := bufio.NewWriter(w)
	for i := range run.Records {
		if err := WriteRecord(bw, &run.Records[i]); err != nil {
			return err
		}
	}
	if run.Summary != nil {
		if err := WriteSummary(bw, run.Summary); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRun parses a licm-load/1 stream. strict additionally rejects
// unknown fields and any semantic inconsistency (Run.Validate); the
// lenient mode still requires the schema tag, line types and a single
// trailing summary.
func ReadRun(r io.Reader, strict bool) (*Run, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 16<<20)
	run := &Run{}
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var head struct {
			Schema string `json:"schema"`
			Type   string `json:"type"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", line, err)
		}
		if !strings.HasPrefix(head.Schema, "licm-load/") {
			return nil, fmt.Errorf("workload: line %d: schema %q, want %s", line, head.Schema, Schema)
		}
		if head.Schema != Schema {
			return nil, fmt.Errorf("workload: line %d: unsupported schema %q (this reader understands %s)", line, head.Schema, Schema)
		}
		if run.Summary != nil {
			return nil, fmt.Errorf("workload: line %d: record after summary", line)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		if strict {
			dec.DisallowUnknownFields()
		}
		switch head.Type {
		case "query":
			var rec Record
			if err := dec.Decode(&rec); err != nil {
				return nil, fmt.Errorf("workload: line %d: %w", line, err)
			}
			run.Records = append(run.Records, rec)
		case "summary":
			var s Summary
			if err := dec.Decode(&s); err != nil {
				return nil, fmt.Errorf("workload: line %d: %w", line, err)
			}
			run.Summary = &s
		default:
			return nil, fmt.Errorf("workload: line %d: unknown line type %q", line, head.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if run.Summary == nil {
		return nil, fmt.Errorf("workload: stream has no summary record")
	}
	if strict {
		if err := run.Validate(); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// LoadTol are the diff tolerances. Everything except wall latency is
// deterministic for a fixed seed, so only latency gets a factor;
// bound values, qualities and tightness are compared hard.
type LoadTol struct {
	// LatencyFactor bounds summary latency-quantile growth
	// (new <= old * factor); generous because baseline and runner are
	// different machines.
	LatencyFactor float64
	// MinLatencyNs is the noise floor: quantiles below it on both
	// sides are never flagged.
	MinLatencyNs int64
	// QerrSlack is the absolute slack on tightness-quantile growth.
	// Tightness is deterministic, so this only absorbs float
	// formatting; regressions mean the solver proves looser bounds.
	QerrSlack float64
}

// DefaultLoadTol returns the CI gate's tolerances.
func DefaultLoadTol() LoadTol {
	return LoadTol{LatencyFactor: 3.0, MinLatencyNs: 2_000_000, QerrSlack: 1e-9}
}

// LoadDiff is the outcome of comparing two runs: Warnings note
// context differences (environment, parameters), Breaches are
// regressions or correctness failures that should fail a gate.
type LoadDiff struct {
	Warnings []string
	Breaches []string
}

// OK reports whether the diff found no breaches.
func (d *LoadDiff) OK() bool { return len(d.Breaches) == 0 }

// DiffRuns compares a new run against a baseline. Parameter
// mismatches (different seed, scale, scheme) degrade the comparison
// to warnings plus whatever record overlap exists; with identical
// parameters every divergence in deterministic figures is a breach.
func DiffRuns(old, new *Run, tol LoadTol) *LoadDiff {
	if tol.LatencyFactor <= 0 {
		tol.LatencyFactor = DefaultLoadTol().LatencyFactor
	}
	if tol.MinLatencyNs <= 0 {
		tol.MinLatencyNs = DefaultLoadTol().MinLatencyNs
	}
	if tol.QerrSlack <= 0 {
		tol.QerrSlack = DefaultLoadTol().QerrSlack
	}
	d := &LoadDiff{}
	os, ns := old.Summary, new.Summary
	if os == nil || ns == nil {
		d.Breaches = append(d.Breaches, "run missing summary record")
		return d
	}
	sameParams := true
	warn := func(format string, args ...any) {
		d.Warnings = append(d.Warnings, fmt.Sprintf(format, args...))
	}
	breach := func(format string, args ...any) {
		d.Breaches = append(d.Breaches, fmt.Sprintf(format, args...))
	}
	if os.GoVersion != ns.GoVersion || os.GOOS != ns.GOOS || os.GOARCH != ns.GOARCH {
		warn("environment differs: %s/%s/%s vs %s/%s/%s",
			os.GoVersion, os.GOOS, os.GOARCH, ns.GoVersion, ns.GOOS, ns.GOARCH)
	}
	if os.Trans != ns.Trans || os.Items != ns.Items || os.Scheme != ns.Scheme ||
		os.K != ns.K || os.M != ns.M || os.Seed != ns.Seed ||
		os.MCSamples != ns.MCSamples || os.DeadlineNs != ns.DeadlineNs {
		warn("run parameters differ (trans/items/scheme/k/m/seed/mc/deadline): deterministic comparisons limited to overlapping specs")
		sameParams = false
	}

	// Correctness first: a new run with violations never passes.
	if ns.Violations > 0 {
		breach("new run has %d consistency violations", ns.Violations)
	}

	byID := make(map[int]*Record, len(old.Records))
	for i := range old.Records {
		byID[old.Records[i].Spec.ID] = &old.Records[i]
	}
	matched := 0
	for i := range new.Records {
		nr := &new.Records[i]
		or, ok := byID[nr.Spec.ID]
		if !ok {
			if sameParams {
				breach("query %s: present in new run only", nr.Name)
			}
			continue
		}
		delete(byID, nr.Spec.ID)
		if or.Spec != nr.Spec {
			breach("query %s: spec drifted between runs", nr.Name)
			continue
		}
		matched++
		// Proven bounds are deterministic figures, not measurements: a
		// changed value under the same seed and budget means the solver
		// changed its answer.
		if or.Proven && nr.Proven && sameParams && (or.Lb != nr.Lb || or.Ub != nr.Ub) {
			breach("query %s: proven bounds changed [%d, %d] -> [%d, %d]",
				nr.Name, or.Lb, or.Ub, nr.Lb, nr.Ub)
		}
		if qualityRank(nr.Quality) > qualityRank(or.Quality) {
			breach("query %s: quality regressed %s -> %s", nr.Name, or.Quality, nr.Quality)
		}
	}
	if sameParams {
		for _, or := range byID {
			breach("query %s: missing from new run", or.Name)
		}
	}

	if ns.Exact < os.Exact {
		breach("exactly-solved queries dropped %d -> %d", os.Exact, ns.Exact)
	}
	if ns.Proven < os.Proven {
		breach("proven queries dropped %d -> %d", os.Proven, ns.Proven)
	}
	if sameParams && ns.QerrP90 > os.QerrP90+tol.QerrSlack {
		breach("bound tightness regressed: qerr p90 %.6g -> %.6g", os.QerrP90, ns.QerrP90)
	}
	if sameParams && ns.QerrMax > os.QerrMax+tol.QerrSlack {
		breach("bound tightness regressed: qerr max %.6g -> %.6g", os.QerrMax, ns.QerrMax)
	}
	for _, q := range []struct {
		name     string
		old, new int64
	}{
		{"p50", os.LatencyP50Ns, ns.LatencyP50Ns},
		{"p95", os.LatencyP95Ns, ns.LatencyP95Ns},
	} {
		if q.new <= tol.MinLatencyNs {
			continue
		}
		// Clamp the baseline to the noise floor before computing the
		// growth factor: a zero or near-zero baseline quantile (a fast
		// machine, a trivial store) would otherwise make any measurable
		// latency look like an unbounded regression and fire the gate
		// spuriously.
		base := float64(q.old)
		if base < float64(tol.MinLatencyNs) {
			base = float64(tol.MinLatencyNs)
		}
		if float64(q.new) > base*tol.LatencyFactor {
			breach("latency %s regressed %.2fms -> %.2fms (factor %.2f > %.2f)",
				q.name, float64(q.old)/1e6, float64(q.new)/1e6,
				float64(q.new)/base, tol.LatencyFactor)
		}
	}
	_ = matched
	return d
}

// qualityRank orders the supervisor's degradation ladder; a diff
// breaches whenever a query slides down it, including exact ->
// proven-interval (the bounds may still be proven, but the solver
// stopped closing the gap).
func qualityRank(q string) int {
	switch q {
	case "exact":
		return 0
	case "proven-interval":
		return 1
	case "sampled":
		return 2
	default:
		return 3
	}
}

// quantileI64 returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func quantileI64(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), q)]
}

// quantileF64 is quantileI64 over float64 samples.
func quantileF64(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// rank maps a quantile to its nearest-rank index in a sorted slice of
// length n.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
