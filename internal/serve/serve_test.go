package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"licm/internal/obs"
	"licm/internal/seedflag"
	"licm/internal/solver"
	"licm/internal/super"
	"licm/internal/workload"
)

// testWorkload is the small fixed-seed store every serve test runs
// against: large enough to exercise all query shapes, small enough
// that solves stay in the exact/proven band and the whole suite
// survives the race detector on a single-core runner.
func testWorkload() workload.Config {
	opts := solver.DefaultOptions()
	opts.CompleteWitness = false
	return workload.Config{
		NumTransactions: 60,
		NumItems:        30,
		Scheme:          "k",
		K:               4,
		Seed:            3,
		MCSamples:       10,
		Solver:          opts,
		Metrics:         obs.NewRegistry(),
	}
}

// testServer starts a drained-on-cleanup server on a free port.
func testServer(t *testing.T, mutate func(*Config)) (*Server, *Client) {
	t.Helper()
	cfg := Config{Workload: testWorkload()}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s, &Client{BaseURL: addr}
}

func testSpecs(t *testing.T, n int) []workload.Spec {
	t.Helper()
	specs := workload.GenerateSpecs(n, 7, 1000, 40)
	if len(specs) != n {
		t.Fatalf("GenerateSpecs returned %d specs, want %d", len(specs), n)
	}
	return specs
}

// TestServeEndToEndParity is the core serving contract: a served
// answer must equal the local supervised solve's answer of the same
// spec on the same store in every field but the request id and the
// wall time, and the health and metrics surfaces must hold up around
// it.
func TestServeEndToEndParity(t *testing.T) {
	_, client := testServer(t, nil)
	specs := testSpecs(t, 6)

	ctx := context.Background()
	if err := client.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := client.Readyz(ctx); err != nil {
		t.Fatalf("readyz: %v", err)
	}

	// Local reference run on an identical config.
	cfg := testWorkload()
	local, err := workload.Execute(cfg, specs)
	if err != nil {
		t.Fatalf("local Execute: %v", err)
	}

	for i, sp := range specs {
		resp, err := client.Query(ctx, &Request{Schema: workload.SpecSchema, Spec: sp})
		if err != nil {
			t.Fatalf("query %s: %v", sp.Name(), err)
		}
		if resp.Err != nil {
			t.Fatalf("query %s: typed error %s: %s", sp.Name(), resp.Err.Code, resp.Err.Message)
		}
		// One producer answers both: the served answer is the local
		// record's, field for field, except for the request id and the
		// measured wall time.
		lr := &local.Records[i]
		if resp.LatencyNs <= 0 {
			t.Errorf("query %s: non-positive latency %d", sp.Name(), resp.LatencyNs)
		}
		served, want := resp.Answer, lr.Answer
		served.LatencyNs, served.RequestID = 0, ""
		want.LatencyNs, want.RequestID = 0, ""
		if served != want {
			t.Errorf("query %s: served answer %+v, local %+v", sp.Name(), served, want)
		}
	}

	// The metrics endpoint must expose a parseable, valid exposition
	// that accounts for every request.
	hres, err := http.Get("http://" + client.BaseURL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer hres.Body.Close()
	fams, err := obs.ParseProm(hres.Body)
	if err != nil {
		t.Fatalf("metrics parse: %v", err)
	}
	if err := obs.ValidateProm(fams); err != nil {
		t.Fatalf("metrics validate: %v", err)
	}
	found := false
	for _, f := range fams {
		if f.Name == "licm_serve_requests_total" {
			found = true
			if len(f.Samples) != 1 || f.Samples[0].Value < float64(len(specs)) {
				t.Errorf("licm_serve_requests_total = %+v, want >= %d", f.Samples, len(specs))
			}
		}
	}
	if !found {
		t.Error("metrics exposition lacks licm_serve_requests_total")
	}
}

// TestServeClientAnswer checks the workload adapter: a remote answer
// feeds a scored workload run whose records pass the same validation
// as local solves, with zero violations against local ground truth.
func TestServeClientAnswer(t *testing.T) {
	_, client := testServer(t, nil)
	specs := testSpecs(t, 4)

	cfg := testWorkload()
	cfg.Answer = client.Answer
	run, err := workload.Execute(cfg, specs)
	if err != nil {
		t.Fatalf("Execute via target: %v", err)
	}
	if run.Summary.Violations != 0 {
		t.Fatalf("served run has %d consistency violations", run.Summary.Violations)
	}
	for i := range run.Records {
		if err := run.Records[i].Validate(); err != nil {
			t.Errorf("record %s: %v", run.Records[i].Name, err)
		}
	}
}

func TestServeBadRequests(t *testing.T) {
	_, client := testServer(t, nil)
	base := "http://" + client.BaseURL

	post := func(body, hdr string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if hdr != "" {
			req.Header.Set("X-Licm-Fault", hdr)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	check := func(res *http.Response, wantStatus int) {
		t.Helper()
		defer res.Body.Close()
		if res.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d", res.StatusCode, wantStatus)
		}
		var resp Response
		if err := decodeJSON(res, &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := resp.Protocol(); err != nil {
			t.Fatalf("protocol: %v", err)
		}
		if resp.Err == nil || resp.Err.Code != ErrBadRequest {
			t.Fatalf("error %+v, want %s", resp.Err, ErrBadRequest)
		}
	}

	check(post("{not json", ""), 400)
	check(post(`{"schema":"wrong/1","id":1,"kind":"q1","agg":"count"}`, ""), 400)
	check(post(`{"id":1,"kind":"q9","agg":"count"}`, ""), 400)
	check(post(`{"id":1,"kind":"q1","agg":"count","bogus_field":1}`, ""), 400)
	// Fault injection refused loudly on a server that does not allow it.
	check(post(`{"id":1,"kind":"q1","agg":"count","x":3}`, "ctrl-batch:0:panic"), 400)

	// Wrong method.
	res, err := http.Get(base + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	check(res, 400)
}

func decodeJSON(res *http.Response, v any) error {
	defer res.Body.Close()
	return json.NewDecoder(res.Body).Decode(v)
}

// TestServeShedPath pins the overload behavior: with the admission
// queue at its watermark and no worker available, a query is never
// refused — it is answered inline at the sampled ladder rung, marked
// Shed, and still satisfies the protocol contract.
func TestServeShedPath(t *testing.T) {
	cfg := Config{Workload: testWorkload(),
		Workers:    -1, // no worker pool: admission state is fully test-controlled
		QueueDepth: 4, ShedWatermark: 1, ShedSamples: 3}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Pin the queue at the watermark; with no workers it stays there.
	s.queue <- &task{}

	client := &Client{BaseURL: ts.URL}
	// A nonzero id, so the per-spec seed offset is pinned too.
	sp := testSpecs(t, 2)[1]
	resp, err := client.Query(context.Background(), &Request{Spec: sp})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if resp.Err != nil {
		t.Fatalf("shed query got typed error %s: %s", resp.Err.Code, resp.Err.Message)
	}
	if !resp.Shed || resp.Quality != "sampled" {
		t.Fatalf("shed=%v quality=%s, want shed sampled answer", resp.Shed, resp.Quality)
	}
	// The shed range is the spec's sampled fallback: the worlds a
	// degraded solve of the same spec would sample, ShedSamples of them.
	enc := s.newEnc()
	obj, _, err := sp.Build(enc)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := super.MCFallback(enc, obj,
		seedflag.Derive(cfg.Workload.Seed, seedflag.FallbackStream)+int64(sp.ID), cfg.ShedSamples)()
	if resp.Lb != lo || resp.Ub != hi {
		t.Fatalf("shed range [%d, %d], want the spec's %d-world fallback [%d, %d]",
			resp.Lb, resp.Ub, cfg.ShedSamples, lo, hi)
	}

	// With shedding disabled by configuration, the same overload is a
	// typed overloaded error — still never a bare 503.
	cfg.ShedSamples = -1
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	s2.queue <- &task{}
	resp, err = (&Client{BaseURL: ts2.URL}).Query(context.Background(), &Request{Spec: sp})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if resp.Err == nil || resp.Err.Code != ErrOverloaded {
		t.Fatalf("got %+v, want typed %s error", resp, ErrOverloaded)
	}
}

// TestServeDrain walks the SIGTERM lifecycle: readiness flips, queries
// admitted before the drain complete, queries after it get a typed
// draining error, and Drain is idempotent.
func TestServeDrain(t *testing.T) {
	cfg := Config{Workload: testWorkload()}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	client := &Client{BaseURL: addr}
	ctx := context.Background()
	specs := testSpecs(t, 3)

	// In-flight queries launched just before the drain must complete
	// with real answers.
	var wg sync.WaitGroup
	results := make([]*Response, len(specs))
	errs := make([]error, len(specs))
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = client.Query(ctx, &Request{Spec: specs[i]})
		}(i)
	}

	// Wait until every query has reached the handler before draining,
	// so the listener is not torn down under connections still dialing.
	deadline := time.Now().Add(10 * time.Second)
	for s.reg.Counter("serve.requests").Value() < int64(len(specs)) {
		if time.Now().After(deadline) {
			t.Fatal("queries never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	dctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("in-flight query %d: %v", i, errs[i])
		}
		// A query that raced the drain may be refused with the typed
		// draining error; one that was admitted must be answered.
		if results[i].Err != nil && results[i].Err.Code != ErrDraining {
			t.Errorf("in-flight query %d: unexpected error %+v", i, results[i].Err)
		}
	}

	// Liveness stays up through the drain; readiness is down.
	if err := client.Healthz(ctx); err == nil {
		// The HTTP intake is closed after drain, so healthz now fails
		// at the transport level — both outcomes (typed 503 before
		// close, transport error after) are acceptable here. What must
		// never happen is readiness still reporting OK:
		if rerr := client.Readyz(ctx); rerr == nil {
			t.Error("readyz still OK after drain")
		}
	}

	// New queries are refused with the typed draining error while the
	// listener still answers, and Drain is idempotent.
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestServeDrainIdleConnection: a client holding a connection that
// never carried a request must not fail the drain. net/http counts
// such a connection as active for its first 5s, so the HTTP shutdown
// has to run on the caller's drain budget, not a shorter fixed one.
func TestServeDrainIdleConnection(t *testing.T) {
	s, err := New(Config{Workload: testWorkload()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain with an idle client connection: %v", err)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Error("listener still accepts connections after drain")
	}
}

// TestServeFaultIsolation: a fault header reaches only its own
// request's solve. Faulted and clean requests run concurrently on
// several workers; every clean answer must come back untouched, and
// every solved faulted one must recover exactly its own panic.
func TestServeFaultIsolation(t *testing.T) {
	_, srvClient := testServer(t, func(c *Config) {
		c.AllowFaultHeader = true
		c.Workers = 4
	})
	// A private transport whose spare connections close before the
	// cleanup drain, so it does not wait out net/http's 5s grace for a
	// connection the burst dialed but never used.
	hc := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(hc.CloseIdleConnections)
	client := &Client{BaseURL: srvClient.BaseURL, HTTPClient: hc}
	faulty := &Client{BaseURL: srvClient.BaseURL, HTTPClient: hc, FaultHeader: "ctrl-batch:0:panic"}
	// Alone, a faulted spec recovers one panic exactly when its solve
	// reaches a ctrl batch boundary; keep those specs.
	var specs []workload.Spec
	for _, sp := range testSpecs(t, 4) {
		resp, err := faulty.Query(context.Background(), &Request{Spec: sp})
		if err != nil {
			t.Fatalf("calibration query %s: %v", sp.Name(), err)
		}
		if resp.PanicsRecovered == 1 {
			specs = append(specs, sp)
		}
	}
	if len(specs) == 0 {
		t.Fatal("no spec reaches a ctrl batch boundary")
	}
	const perKind = 8
	type result struct {
		resp    *Response
		err     error
		faulted bool
	}
	results := make([]result, 2*perKind)
	var wg sync.WaitGroup
	for i := range results {
		c, faulted := client, i%2 == 0
		if faulted {
			c = faulty
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Query(context.Background(), &Request{Spec: specs[(i/2)%len(specs)]})
			results[i] = result{resp, err, faulted}
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		switch {
		case !r.faulted && (r.resp.PanicsRecovered != 0 || r.resp.Retries != 0):
			t.Errorf("clean request %d: %d panics, %d retries, want 0/0", i, r.resp.PanicsRecovered, r.resp.Retries)
		case r.faulted && !r.resp.Shed && r.resp.PanicsRecovered != 1:
			t.Errorf("faulted request %d: %d panics recovered, want exactly its own 1", i, r.resp.PanicsRecovered)
		}
	}
}

// TestServeDrainRefusesNewQueries pins the typed refusal while the
// intake is still open: drain with nothing in flight, then query.
func TestServeDrainRefusesNewQueries(t *testing.T) {
	cfg := Config{Workload: testWorkload()}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err := client.Query(context.Background(), &Request{Spec: testSpecs(t, 1)[0]})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if resp.Err == nil || resp.Err.Code != ErrDraining {
		t.Fatalf("got %+v, want typed %s error", resp, ErrDraining)
	}
	if err := client.Readyz(context.Background()); err == nil {
		t.Error("readyz OK on a draining server")
	}
	if err := client.Healthz(context.Background()); err != nil {
		t.Errorf("healthz failed on a draining server: %v", err)
	}
}

// TestServeDeadlinePropagation: a request-supplied deadline reaches
// the solve context. With a 1ms budget the answer may still complete
// exact (tiny store) or degrade to sampled — both are fine; what is
// pinned is that the response is a protocol-valid answer either way,
// and that an absurd deadline is clamped rather than honored.
func TestServeDeadlinePropagation(t *testing.T) {
	_, client := testServer(t, func(c *Config) { c.MaxDeadline = 5 * time.Second })
	sp := testSpecs(t, 1)[0]
	for _, ms := range []int64{1, 1 << 40} {
		resp, err := client.Query(context.Background(), &Request{Spec: sp, DeadlineMs: ms})
		if err != nil {
			t.Fatalf("deadline_ms=%d: %v", ms, err)
		}
		if resp.Err != nil {
			t.Fatalf("deadline_ms=%d: typed error %+v", ms, resp.Err)
		}
	}
}

// TestServeRequestIDs pins the correlation contract of the request-id
// layer: every response carries a valid id (body and header agree), a
// valid client-proposed id is adopted verbatim, ids are distinct
// across requests, and an invalid proposed id is a typed bad-request
// — never silently laundered into traces.
func TestServeRequestIDs(t *testing.T) {
	_, client := testServer(t, nil)
	base := "http://" + client.BaseURL
	body, err := json.Marshal(&Request{Schema: workload.SpecSchema, Spec: testSpecs(t, 1)[0]})
	if err != nil {
		t.Fatal(err)
	}

	post := func(proposed string) (string, *Response) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if proposed != "" {
			req.Header.Set(RequestIDHeader, proposed)
		}
		hres, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		hdr := hres.Header.Get(RequestIDHeader)
		var resp Response
		if err := decodeJSON(hres, &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return hdr, &resp
	}

	hdr, resp := post("")
	if resp.Err != nil {
		t.Fatalf("query: typed error %+v", resp.Err)
	}
	if resp.RequestID == "" || !ValidRequestID(resp.RequestID) {
		t.Fatalf("server-assigned request id %q is empty or invalid", resp.RequestID)
	}
	if hdr != resp.RequestID {
		t.Errorf("header id %q != body id %q", hdr, resp.RequestID)
	}
	first := resp.RequestID

	_, resp = post("")
	if resp.RequestID == first {
		t.Errorf("two requests share id %q", first)
	}

	hdr, resp = post("client-chosen.id-1")
	if resp.RequestID != "client-chosen.id-1" || hdr != resp.RequestID {
		t.Errorf("proposed id not adopted: body %q header %q", resp.RequestID, hdr)
	}

	for _, bad := range []string{"has space", strings.Repeat("x", maxRequestIDLen+1), "no/slash"} {
		hdr, resp = post(bad)
		if resp.Err == nil || resp.Err.Code != ErrBadRequest {
			t.Errorf("proposed id %q: got %+v, want typed %s", bad, resp.Err, ErrBadRequest)
		}
		// Even the rejection is correlatable — by a server-assigned id.
		if resp.RequestID == "" || resp.RequestID == bad || hdr != resp.RequestID {
			t.Errorf("rejection of %q carries id %q (header %q)", bad, resp.RequestID, hdr)
		}
	}
}

// TestServeForensicsCorrelation is the end-to-end acceptance flow of
// the forensics layer, on a fixed-seed store: run a scored workload
// against the server with every solve deadline-starved so it degrades,
// then fetch /debug/licm/requests over HTTP and require that each
// scored record's request id resolves to a flight-recorder entry whose
// span tree agrees with the record's latency — the solve span is
// bracketed by the scored latency, which is bracketed by the request
// envelope. Also checks SLO burn for the degraded run and the detail
// and HTML views of the endpoint.
func TestServeForensicsCorrelation(t *testing.T) {
	slos, err := ParseSLOs([]string{"p99<=1h", "exact-rate>=0.5"})
	if err != nil {
		t.Fatal(err)
	}
	srv, client := testServer(t, func(c *Config) {
		// Every solve starts with its budget already spent, so the
		// supervisor deterministically lands on the sampled rung: a
		// degraded, deadline-violated request for the recorder.
		c.DefaultDeadline = time.Nanosecond
		c.SLOs = slos
	})
	specs := testSpecs(t, 4)
	cfg := testWorkload()
	cfg.Answer = client.Answer
	run, err := workload.Execute(cfg, specs)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if run.Summary.Violations != 0 {
		t.Fatalf("served run has %d consistency violations", run.Summary.Violations)
	}
	seen := map[string]bool{}
	for i := range run.Records {
		rec := &run.Records[i]
		if rec.RequestID == "" {
			t.Fatalf("record %s carries no request id", rec.Name)
		}
		if seen[rec.RequestID] {
			t.Fatalf("duplicate request id %s", rec.RequestID)
		}
		seen[rec.RequestID] = true
		if rec.Quality == "exact" {
			t.Fatalf("record %s stayed exact under a spent deadline", rec.Name)
		}
	}

	hres, err := http.Get("http://" + client.BaseURL + "/debug/licm/requests")
	if err != nil {
		t.Fatalf("fetch recorder: %v", err)
	}
	d, err := ReadDump(hres.Body)
	hres.Body.Close()
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}

	for i := range run.Records {
		rec := &run.Records[i]
		var entry *RecordedRequest
		for j := range d.Entries {
			if d.Entries[j].RequestID == rec.RequestID {
				entry = &d.Entries[j]
				break
			}
		}
		if entry == nil {
			t.Fatalf("record %s (request %s) has no flight-recorder entry among %d",
				rec.Name, rec.RequestID, len(d.Entries))
		}
		if !hasBadge(entry.Badges, BadgeDegraded) || !hasBadge(entry.Badges, BadgeDeadlineViolated) {
			t.Errorf("entry %s badges %v, want degraded and deadline-violated", rec.RequestID, entry.Badges)
		}
		if entry.Response == nil || entry.Response.RequestID != rec.RequestID {
			t.Fatalf("entry %s retains no matching response", rec.RequestID)
		}

		// The span tree is self-contained and request-stamped.
		if len(entry.Events) == 0 {
			t.Fatalf("entry %s retains no trace events", rec.RequestID)
		}
		var superNs, requestNs int64
		for _, ev := range entry.Events {
			if got := ev.Attrs["request_id"]; got != rec.RequestID {
				t.Fatalf("entry %s holds event %s stamped %v", rec.RequestID, ev.Name, got)
			}
			if ev.Kind == obs.KindSpanEnd {
				switch ev.Name {
				case "super.solve":
					superNs = ev.DurNs
				case "serve.request":
					requestNs = ev.DurNs
				}
			}
		}
		if superNs <= 0 || requestNs <= 0 {
			t.Fatalf("entry %s span tree lacks super.solve/serve.request ends (%d events)",
				rec.RequestID, len(entry.Events))
		}

		// Latency agreement: solve span <= scored record latency <=
		// request envelope, all from the same monotonic measurements
		// (1ms slack for clock rounding), and the envelope overhead
		// above the solve is bounded — a unit mismatch or a swapped
		// correlation would blow these brackets apart.
		slack := int64(time.Millisecond)
		if superNs > rec.LatencyNs+slack {
			t.Errorf("entry %s: solve span %s exceeds scored latency %s",
				rec.RequestID, time.Duration(superNs), time.Duration(rec.LatencyNs))
		}
		if rec.LatencyNs > entry.TotalNs+slack {
			t.Errorf("entry %s: scored latency %s exceeds request envelope %s",
				rec.RequestID, time.Duration(rec.LatencyNs), time.Duration(entry.TotalNs))
		}
		if overhead := entry.TotalNs - superNs; overhead < 0 || overhead > int64(2*time.Second) {
			t.Errorf("entry %s: envelope-minus-solve overhead %s out of bounds",
				rec.RequestID, time.Duration(overhead))
		}
	}

	// The all-sampled run torches the exact-rate budget (burn 1/0.5 = 2)
	// while the 1h latency objective stays green.
	if got := srv.reg.Gauge("slo.exact_rate.burn_ppm").Value(); got < 1_000_000 {
		t.Errorf("exact-rate burn %d ppm, want >= 1e6 on an all-degraded run", got)
	}
	if got := srv.reg.Counter("slo.latency_p99.violations").Value(); got != 0 {
		t.Errorf("latency violations %d, want 0 under a 1h objective", got)
	}

	// Detail and HTML views answer for a retained id.
	id := run.Records[0].RequestID
	for _, q := range []string{"?id=" + id, "?format=html"} {
		res, err := http.Get("http://" + client.BaseURL + "/debug/licm/requests" + q)
		if err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Errorf("GET %s: status %d", q, res.StatusCode)
		}
	}
	res, err := http.Get("http://" + client.BaseURL + "/debug/licm/requests?id=absent")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 404 {
		t.Errorf("absent id: status %d, want 404", res.StatusCode)
	}
}
