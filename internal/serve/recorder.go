package serve

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"licm/internal/explain"
	"licm/internal/obs"
)

// RequestsSchema versions the flight-recorder dump artifact served at
// /debug/licm/requests and written by licmd -requests-dump; licmtrace
// requests is its reader.
const RequestsSchema = "licm-requests/1"

// Badges classifying why a request was retained by the flight
// recorder. One entry can carry several.
const (
	BadgeSlowest          = "slowest"
	BadgeDegraded         = "degraded"
	BadgeShed             = "shed"
	BadgePanicked         = "panicked"
	BadgeDeadlineViolated = "deadline-violated"
)

// badgeClasses is the retention-ring order (and the dump's class
// listing order). BadgeSlowest is handled by the worst-N heap, not a
// last-N ring.
var badgeClasses = []string{BadgeDegraded, BadgeShed, BadgePanicked, BadgeDeadlineViolated}

// RecordedRequest is one flight-recorder entry: everything needed to
// reconstruct why one request got the answer it got — the request and
// response bodies, the request's own span tree (every trace event the
// request's forked tracer emitted, request_id-stamped), and the
// explain report of the answering solve when one ran.
type RecordedRequest struct {
	RequestID string    `json:"request_id"`
	Badges    []string  `json:"badges"`
	Start     time.Time `json:"start"`
	// TotalNs is the end-to-end handler time: decode, admission, queue
	// wait, solve (or shed estimate), encode decision — the figure the
	// slowest-N and deadline-violation policies rank by.
	TotalNs int64 `json:"total_ns"`
	// DeadlineNs is the effective per-request budget (0 = none);
	// TotalNs > DeadlineNs earns BadgeDeadlineViolated.
	DeadlineNs int64           `json:"deadline_ns,omitempty"`
	Request    *Request        `json:"request,omitempty"`
	Response   *Response       `json:"response"`
	Events     []obs.Event     `json:"events,omitempty"`
	Explain    *explain.Report `json:"explain,omitempty"`
}

// RequestsDump is the serialized recorder state: licm-requests/1.
type RequestsDump struct {
	Schema string `json:"schema"`
	// Depth is the per-class retention depth the recorder ran with.
	Depth   int               `json:"depth"`
	Entries []RecordedRequest `json:"entries"`
}

// Recorder is the bounded in-memory flight recorder: it retains the
// worst-N requests per policy — the N slowest overall plus the last N
// of each badge class (degraded, shed, panicked, deadline-violated) —
// and serves them as JSON or HTML at /debug/licm/requests. All methods
// are safe for concurrent use; a nil *Recorder is inert (the obs nil
// no-op contract), so the serving path records unconditionally.
type Recorder struct {
	depth int

	mu sync.Mutex
	// slow is the worst-N-by-TotalNs set, kept as a min-heap-by-scan
	// (depth is small): a new entry evicts the current fastest once
	// the set is full, so the N slowest requests ever seen survive
	// arbitrary interleaving — the property the race test pins.
	slow []*RecordedRequest
	// rings holds a last-N circular buffer per badge class.
	rings map[string]*entryRing
	seen  int64
}

// entryRing is a fixed-size last-N buffer.
type entryRing struct {
	buf  []*RecordedRequest
	next int
	n    int
}

func (r *entryRing) add(e *RecordedRequest) {
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// NewRecorder builds a recorder retaining depth entries per class
// (depth <= 0 selects the default 32).
func NewRecorder(depth int) *Recorder {
	if depth <= 0 {
		depth = 32
	}
	rec := &Recorder{depth: depth, rings: map[string]*entryRing{}}
	for _, c := range badgeClasses {
		rec.rings[c] = &entryRing{buf: make([]*RecordedRequest, depth)}
	}
	return rec
}

// badges derives an entry's retention badges from its outcome. The
// slowest badge is decided at observation time (it depends on the
// current worst-N set), so it is not assigned here.
func badges(e *RecordedRequest) []string {
	var b []string
	resp := e.Response
	if resp == nil {
		return b
	}
	if resp.Quality != "" && resp.Quality != "exact" {
		b = append(b, BadgeDegraded)
	}
	if resp.Shed {
		b = append(b, BadgeShed)
	}
	if resp.PanicsRecovered > 0 ||
		(resp.Err != nil && strings.HasPrefix(resp.Err.Message, "contained")) {
		b = append(b, BadgePanicked)
	}
	if e.DeadlineNs > 0 && e.TotalNs > e.DeadlineNs {
		b = append(b, BadgeDeadlineViolated)
	}
	return b
}

// Observe offers one finished request to the recorder. The entry is
// retained if it earns any badge or displaces a faster entry in the
// worst-N set; otherwise it is dropped (bounded memory is the point).
func (r *Recorder) Observe(e *RecordedRequest) {
	if r == nil || e == nil || e.Response == nil {
		return
	}
	e.Badges = badges(e)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen++
	if len(r.slow) < r.depth {
		e.Badges = append(e.Badges, BadgeSlowest)
		r.slow = append(r.slow, e)
	} else if mi := minIdx(r.slow); e.TotalNs > r.slow[mi].TotalNs {
		evicted := r.slow[mi]
		evicted.Badges = removeBadge(evicted.Badges, BadgeSlowest)
		e.Badges = append(e.Badges, BadgeSlowest)
		r.slow[mi] = e
	}
	for _, c := range badgeClasses {
		if hasBadge(e.Badges, c) {
			r.rings[c].add(e)
		}
	}
}

func minIdx(es []*RecordedRequest) int {
	mi := 0
	for i, e := range es {
		if e.TotalNs < es[mi].TotalNs {
			mi = i
		}
	}
	return mi
}

func hasBadge(bs []string, b string) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// removeBadge returns bs without b in a new slice: a Snapshot taken
// earlier shares the old backing array and may still be serializing it.
func removeBadge(bs []string, b string) []string {
	out := make([]string, 0, len(bs))
	for _, x := range bs {
		if x != b {
			out = append(out, x)
		}
	}
	return out
}

// Snapshot returns the retained entries, deduplicated by request id
// and sorted slowest-first. Entries are deep-shared (the recorder
// never mutates an entry after Observe), so callers may serialize
// them without copying.
func (r *Recorder) Snapshot() []RecordedRequest {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	var out []RecordedRequest
	add := func(e *RecordedRequest) {
		if e == nil || seen[e.RequestID] {
			return
		}
		seen[e.RequestID] = true
		out = append(out, *e)
	}
	for _, e := range r.slow {
		add(e)
	}
	for _, c := range badgeClasses {
		ring := r.rings[c]
		for _, e := range ring.buf {
			add(e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNs != out[j].TotalNs {
			return out[i].TotalNs > out[j].TotalNs
		}
		return out[i].RequestID < out[j].RequestID
	})
	return out
}

// Get returns the retained entry with the given request id.
func (r *Recorder) Get(id string) (RecordedRequest, bool) {
	for _, e := range r.Snapshot() {
		if e.RequestID == id {
			return e, true
		}
	}
	return RecordedRequest{}, false
}

// Dump packages the recorder state as a licm-requests/1 artifact.
func (r *Recorder) Dump() *RequestsDump {
	depth := 0
	if r != nil {
		depth = r.depth
	}
	d := &RequestsDump{Schema: RequestsSchema, Depth: depth, Entries: r.Snapshot()}
	if d.Entries == nil {
		d.Entries = []RecordedRequest{}
	}
	return d
}

// WriteDump serializes the recorder as indented licm-requests/1 JSON —
// the drain-time artifact behind licmd -requests-dump.
func (r *Recorder) WriteDump(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Dump())
}

// ReadDump parses a licm-requests/1 artifact, rejecting unknown schema
// majors instead of mis-rendering them.
func ReadDump(rd io.Reader) (*RequestsDump, error) {
	var d RequestsDump
	if err := json.NewDecoder(rd).Decode(&d); err != nil {
		return nil, fmt.Errorf("serve: requests dump: %w", err)
	}
	if !strings.HasPrefix(d.Schema, "licm-requests/") {
		return nil, fmt.Errorf("serve: not a requests dump (schema %q, want licm-requests/*)", d.Schema)
	}
	if d.Schema != RequestsSchema {
		return nil, fmt.Errorf("serve: unsupported requests schema %q (this reader understands %s)", d.Schema, RequestsSchema)
	}
	return &d, nil
}

// Handler serves the recorder over HTTP:
//
//	GET /debug/licm/requests              — licm-requests/1 JSON dump
//	GET /debug/licm/requests?id=<rid>     — one entry (404 when absent)
//	GET /debug/licm/requests?format=html  — HTML drill-down table
//
// Registered on both the service mux and (via obs.DebugServer.Handle)
// the debug server, so forensics stay reachable from whichever port a
// probe already knows.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		if id := req.URL.Query().Get("id"); id != "" {
			e, ok := r.Get(id)
			if !ok {
				http.Error(w, fmt.Sprintf("request %q not retained", id), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(e)
			return
		}
		if req.URL.Query().Get("format") == "html" {
			r.writeHTML(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteDump(w)
	})
}

// writeHTML renders the drill-down table: one row per retained entry,
// linking to its JSON detail view.
func (r *Recorder) writeHTML(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	entries := r.Snapshot()
	fmt.Fprint(w, `<!DOCTYPE html><html><head><meta charset="utf-8">
<title>licm request forensics</title>
<style>
 body { font: 13px/1.4 system-ui, sans-serif; margin: 1.5em; background: #fafafa; color: #222; }
 table { border-collapse: collapse; background: #fff; }
 th, td { border: 1px solid #ddd; padding: 4px 8px; text-align: left; font-size: 12px; }
 th { background: #f0f0f0; }
 .badge { display: inline-block; background: #2a6fb0; color: #fff; border-radius: 3px;
          padding: 0 5px; margin-right: 3px; font-size: 11px; }
 .badge.shed, .badge.panicked, .badge.deadline-violated { background: #b05a2a; }
 code { font-family: ui-monospace, monospace; }
</style></head><body><h1>licm request forensics</h1>`)
	fmt.Fprintf(w, "<p>%d retained entr%s (worst-%d per class). <a href=\"/debug/licm/requests\">JSON dump</a></p>",
		len(entries), map[bool]string{true: "y", false: "ies"}[len(entries) == 1], r.depth)
	fmt.Fprint(w, `<table><tr><th>request</th><th>query</th><th>quality</th><th>total</th><th>latency</th><th>badges</th><th>spans</th></tr>`)
	for _, e := range entries {
		quality, name := "", ""
		var latency int64
		if e.Response != nil {
			name = e.Response.Name
			latency = e.Response.LatencyNs
			quality = e.Response.Quality
			if e.Response.Err != nil {
				quality = "error:" + string(e.Response.Err.Code)
			}
		}
		var badges strings.Builder
		for _, b := range e.Badges {
			fmt.Fprintf(&badges, `<span class="badge %s">%s</span>`, html.EscapeString(b), html.EscapeString(b))
		}
		spans := 0
		for _, ev := range e.Events {
			if ev.Kind == obs.KindSpanStart {
				spans++
			}
		}
		fmt.Fprintf(w, `<tr><td><a href="/debug/licm/requests?id=%s"><code>%s</code></a></td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td></tr>`,
			html.EscapeString(e.RequestID), html.EscapeString(e.RequestID),
			html.EscapeString(name), html.EscapeString(quality),
			time.Duration(e.TotalNs).Round(time.Microsecond),
			time.Duration(latency).Round(time.Microsecond),
			badges.String(), spans)
	}
	fmt.Fprint(w, `</table></body></html>`)
}
