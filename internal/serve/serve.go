// Package serve is the long-lived LICM query service behind cmd/licmd:
// it loads one anonymized possibilistic store, then answers aggregate
// bounds queries over HTTP/JSON (licm-queries/1 specs in, licm-serve/1
// records out) through the anytime supervisor.
//
// The robustness machinery is the point of the package:
//
//   - A bounded worker pool with admission control: queries queue up to
//     a fixed depth and a shed watermark. Above the watermark a query
//     is not refused — it degrades to the sampled ladder rung
//     (mc.EstimateObjective on the handler goroutine), so overload
//     trades answer quality for throughput instead of availability.
//   - Per-request deadlines with server-side propagation: the deadline
//     covers queue wait plus solve, so a query that overstays its
//     budget degrades down the Exact → ProvenInterval → Sampled ladder
//     instead of hogging a worker.
//   - Panic containment at two boundaries: solver panics are contained
//     by the supervisor (with one jittered perturbed-order retry), and
//     anything that escapes a request handler is converted into a
//     structured typed error, never a dead connection.
//   - Graceful drain: readiness flips immediately, in-flight and
//     queued queries finish, then the HTTP intake and the debug server
//     close. New queries during drain get a typed "draining" error.
//   - Test-only fault injection: when enabled, an X-Licm-Fault header
//     attaches an internal/faultinject plan to that request's context,
//     so chaos harnesses can hammer a live server at every ladder
//     rung while faulted and clean requests solve side by side.
//
// The protocol contract, asserted by Response.Protocol and the chaos
// CI job: every response is exact, proven-interval, sampled, or a
// structured typed error.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"licm/internal/encode"
	"licm/internal/explain"
	"licm/internal/faultinject"
	"licm/internal/obs"
	"licm/internal/super"
	"licm/internal/workload"
)

// Config controls one Server.
type Config struct {
	// Workload carries the store parameters (dataset scale, scheme,
	// seed), the base solver options, the fallback sample count
	// (MCSamples) and the Trace/Metrics/Log surfaces — the same block
	// licmload uses, so a licmload -target client pointed at this
	// server scores against an identical store.
	Workload workload.Config

	// Workers sizes the solve worker pool; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; 0 means 64.
	QueueDepth int
	// ShedWatermark is the queue depth at and above which new queries
	// shed to the sampled rung instead of queueing; 0 means half the
	// queue depth. A full queue sheds regardless of the watermark.
	ShedWatermark int
	// ShedSamples sizes the Monte-Carlo estimate of the shed path; 0
	// means the workload's MCSamples. Negative disables shedding, in
	// which case overload surfaces as typed "overloaded" errors (the
	// configuration escape hatch; the default never serves a bare 503
	// while a degraded answer is computable).
	ShedSamples int

	// DefaultDeadline bounds queries that carry no deadline_ms; 0
	// means no deadline (the solver's node budget still bounds work).
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested deadlines; 0 means 2m.
	MaxDeadline time.Duration

	// AllowFaultHeader honors the X-Licm-Fault header, attaching an
	// internal/faultinject plan to the request's solve. Test-only:
	// never set it on a production server.
	AllowFaultHeader bool

	// RecorderDepth sizes the flight recorder's per-class retention (the
	// N slowest requests plus the last N of each badge class); 0 means
	// 32, negative disables the recorder entirely.
	RecorderDepth int
	// SLOs are the declarative serving objectives (see ParseSLO) whose
	// error-budget burn the server tracks as licm_slo_* series.
	SLOs []SLO
}

// normalized fills the config's zero values with defaults.
func (cfg Config) normalized() Config {
	cfg.Workload = cfg.Workload.Normalized()
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.ShedWatermark == 0 {
		cfg.ShedWatermark = cfg.QueueDepth / 2
	}
	if cfg.ShedWatermark < 1 {
		cfg.ShedWatermark = 1
	}
	if cfg.ShedSamples == 0 {
		cfg.ShedSamples = cfg.Workload.MCSamples
	}
	if cfg.MaxDeadline == 0 {
		cfg.MaxDeadline = 2 * time.Minute
	}
	return cfg
}

// task is one admitted query waiting for a worker.
type task struct {
	req  *Request
	ctx  context.Context
	enq  time.Time
	done chan *Response // buffered; the worker's send never blocks

	// rid is the effective request id; tr the request's forked tracer
	// (request_id-stamped, teeing the service sink with the flight
	// recorder's capture sink). Both may be zero for internal tasks.
	rid string
	tr  *obs.Tracer
	// explain is filled by answer for the flight-recorder entry.
	explain *explain.Report
}

// Server is a running query service. Create with New, expose with
// Handler or Start, stop with Drain.
type Server struct {
	cfg    Config
	newEnc func() *encode.Encoded
	reg    *obs.Registry
	tr     *obs.Tracer
	log    *slog.Logger

	queue   chan *task
	workers sync.WaitGroup
	// pending counts admitted-but-unanswered queries (queued, solving,
	// or shedding inline); Drain waits on it before stopping workers.
	pending sync.WaitGroup

	mu       sync.Mutex // guards draining against concurrent admission
	draining bool

	// rec retains the worst-N requests for /debug/licm/requests; nil
	// when disabled. slo tracks error-budget burn; nil when no SLOs.
	rec *Recorder
	slo *sloTracker
	// ridNonce makes server-generated request ids distinct across
	// restarts (ids are <nonce>-<seq>).
	ridNonce string
	ridSeq   atomic.Int64

	reqSeq atomic.Int64

	srv   *http.Server
	ln    net.Listener
	debug *obs.DebugServer
}

// New builds the server: it generates, anonymizes and encodes the
// store once (failing fast on bad parameters), reads the store's size
// from one fork of it, and starts the worker pool. Every request
// builds its query on its own fork of that base encoding.
func New(cfg Config) (*Server, error) {
	cfg = cfg.normalized()
	if cfg.Workload.MCSamples < 1 {
		// The sampled rung must always be reachable: a server whose
		// ladder can land on Failed would violate the protocol contract.
		return nil, fmt.Errorf("serve: MCSamples must be >= 1 (the sampled rung backs the protocol contract)")
	}
	newEnc, err := cfg.Workload.Encoder()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		newEnc:   newEnc,
		reg:      cfg.Workload.Metrics,
		tr:       cfg.Workload.Trace,
		log:      cfg.Workload.Log,
		queue:    make(chan *task, cfg.QueueDepth),
		slo:      newSLOTracker(cfg.SLOs, cfg.Workload.Metrics, cfg.Workload.Log),
		ridNonce: strconv.FormatInt(time.Now().UnixNano()&0xfffffff, 36),
	}
	if cfg.RecorderDepth >= 0 {
		s.rec = NewRecorder(cfg.RecorderDepth)
	}
	enc := newEnc()
	s.reg.Gauge("serve.store_vars").Set(int64(enc.DB.NumVars()))
	s.reg.Gauge("serve.store_cons").Set(int64(enc.DB.NumConstraints()))
	s.reg.Gauge("serve.workers").Set(int64(cfg.Workers))
	// Register the drain gauge up front so every scrape carries it:
	// dashboards and the serve-smoke gate read it as 0 while serving.
	s.reg.Gauge("serve.draining").Set(0)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the service routing table:
//
//	POST /v1/query            — answer one licm-queries/1 spec
//	GET  /healthz             — liveness: 200 while the process runs
//	GET  /readyz              — readiness: 200 until drain begins, then 503
//	GET  /metrics             — Prometheus text exposition of the registry
//	GET  /debug/licm/requests — flight-recorder forensics (JSON/HTML)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.Handle("/debug/licm/requests", s.rec.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.isDraining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", obs.PromHandler(s.reg))
	return mux
}

// Start binds addr (":0" picks a free port) and serves the Handler in
// the background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Drain
	return ln.Addr().String(), nil
}

// Addr returns the bound address after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// AttachDebug starts the PR-5 debug server (pprof, /metrics,
// /debug/licm dashboard) on addr, sharing the service registry. Drain
// closes it.
func (s *Server) AttachDebug(addr string) (string, error) {
	d, err := obs.ServeDebug(addr, s.reg)
	if err != nil {
		return "", err
	}
	// Forensics ride the debug port too, so a probe that only knows
	// -debug-addr can still drill into retained requests.
	d.Handle("/debug/licm/requests", s.rec.Handler())
	s.debug = d
	return d.Addr(), nil
}

// Requests exposes the flight recorder (nil when disabled); licmd uses
// it to write the drain-time licm-requests/1 dump.
func (s *Server) Requests() *Recorder { return s.rec }

// isDraining reports whether drain has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain is the SIGTERM path: flip readiness, refuse new queries with a
// typed error, finish every admitted query, stop the workers, then
// close the HTTP intake and the debug server. It returns nil on a
// clean drain and an error when ctx expires first (workers are left
// running so in-flight solves still cancel via their own contexts).
// Idempotent: later calls re-wait on the same shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.reg.Gauge("serve.draining").Set(1)
	if s.log != nil && !already {
		s.log.Info("drain started", "queued", len(s.queue))
	}

	done := make(chan struct{})
	go func() {
		s.pending.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
		if !already {
			// No admission can race this close: draining was flipped
			// before pending hit zero, and admission checks draining
			// under the same lock before adding to pending.
			close(s.queue)
		}
		s.workers.Wait()
	case <-ctx.Done():
		drainErr = fmt.Errorf("serve: drain timed out with queries in flight: %w", ctx.Err())
	}

	// The HTTP shutdown shares the caller's budget: net/http counts a
	// connection that never carried a request as active for its first
	// 5s, so a fixed shorter bound would fail drains with no query in
	// flight. An expired ctx still closes the listener.
	if s.srv != nil {
		if err := s.srv.Shutdown(ctx); err != nil && drainErr == nil {
			drainErr = fmt.Errorf("serve: http shutdown: %w", err)
		}
	}
	if err := s.debug.Close(); err != nil && drainErr == nil {
		drainErr = fmt.Errorf("serve: debug server close: %w", err)
	}
	if s.log != nil && !already {
		s.log.Info("drain finished", "err", fmt.Sprint(drainErr))
	}
	return drainErr
}

// handleQuery is the /v1/query endpoint. It never lets a panic escape
// and never hangs a connection: every path writes exactly one
// licm-serve/1 response.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.reg.Counter("serve.requests").Inc()

	// Request-id assignment happens before any response path, so every
	// response — rejections included — carries a correlatable id. A
	// valid client-proposed id is adopted; an invalid one is rejected
	// below (after respond exists), never laundered into traces.
	proposed := r.Header.Get(RequestIDHeader)
	rid := proposed
	if rid == "" || !ValidRequestID(rid) {
		rid = s.ridNonce + "-" + strconv.FormatInt(s.ridSeq.Add(1), 10)
	}

	// Forensics state filled in as the request progresses; the respond
	// closure snapshots it into the flight recorder.
	var (
		deadlineNs int64
		capture    *obs.CollectSink
		reqp       *Request
		tk         *task
		sp         *obs.Span
	)

	wrote := false
	respond := func(status int, resp *Response) {
		wrote = true
		resp.RequestID = rid
		total := time.Since(t0)
		s.reg.Histogram("serve.latency_ns").Observe(int64(total))
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(RequestIDHeader, rid)
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(resp) // a write error means the client hung up

		// Score the request against the SLOs and offer it to the flight
		// recorder. Client-side refusals (bad request, draining) burn no
		// server error budget and carry no forensic value.
		failed := resp.Err != nil
		if failed && (resp.Err.Code == ErrBadRequest || resp.Err.Code == ErrDraining) {
			return
		}
		sp.End()
		s.slo.observe(total, resp.Quality, failed)
		if s.rec != nil {
			e := &RecordedRequest{
				RequestID:  rid,
				Start:      t0,
				TotalNs:    int64(total),
				DeadlineNs: deadlineNs,
				Request:    reqp,
				Response:   resp,
			}
			if capture != nil {
				e.Events = capture.Events()
			}
			if tk != nil {
				e.Explain = tk.explain
			}
			s.rec.Observe(e)
		}
	}
	defer func() {
		if v := recover(); v != nil {
			s.reg.Counter("serve.panics_contained").Inc()
			if s.log != nil {
				s.log.Error("request panic contained", "request_id", rid, "value", fmt.Sprint(v))
			}
			if !wrote {
				respond(ErrInternal.httpStatus(),
					errResponse(0, ErrInternal, "contained request panic: %s", trim(fmt.Sprint(v))))
			}
		}
	}()

	if proposed != "" && !ValidRequestID(proposed) {
		s.reject(respond, 0, ErrBadRequest,
			"bad %s header: want [A-Za-z0-9._-]{1,%d}", RequestIDHeader, maxRequestIDLen)
		return
	}
	if r.Method != http.MethodPost {
		s.reject(respond, 0, ErrBadRequest, "use POST")
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.reject(respond, 0, ErrBadRequest, "bad request body: %v", err)
		return
	}
	if err := req.Validate(); err != nil {
		s.reject(respond, req.Spec.ID, ErrBadRequest, "%v", err)
		return
	}
	fault, err := s.faultPlan(r)
	if err != nil {
		s.reject(respond, req.Spec.ID, ErrBadRequest, "%v", err)
		return
	}
	reqp = &req

	// Per-request tracer fork: every event the request produces — the
	// serve.request span here, encode spans, the supervisor ladder, the
	// solver tree — is stamped with request_id and teed into the flight
	// recorder's capture sink alongside the service trace sink.
	capture = &obs.CollectSink{}
	rtr := s.tr.Fork(capture, obs.Str("request_id", rid))
	sp = rtr.Start("serve.request",
		obs.Str("query", req.Spec.Name()), obs.Int("id", req.Spec.ID))

	// Deadline propagation: the budget starts at admission and covers
	// queue wait plus solve. The request context is the parent, so a
	// client hangup cancels the solve too.
	ctx := r.Context()
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	if deadline > 0 {
		deadlineNs = int64(deadline)
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	if fault != nil {
		// The plan rides this request's context alone, so faulted
		// requests solve concurrently and never reach another
		// request's solve.
		ctx = faultinject.With(ctx, *fault)
		s.reg.Counter("serve.faults_armed").Inc()
	}

	// Admission. Under the lock so drain's "no new pending work after
	// draining flips" invariant holds.
	t := &task{req: &req, ctx: ctx, enq: time.Now(),
		done: make(chan *Response, 1), rid: rid, tr: rtr}
	tk = t
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(respond, req.Spec.ID, ErrDraining, "server is draining")
		return
	}
	s.pending.Add(1)
	queued := false
	if len(s.queue) < s.cfg.ShedWatermark {
		select {
		case s.queue <- t:
			queued = true
		default:
		}
	}
	s.mu.Unlock()
	s.reg.Gauge("serve.queue_depth").Set(int64(len(s.queue)))

	if !queued {
		// Overload: answer inline at the sampled rung rather than
		// refuse. pending was already added, so drain waits for inline
		// sheds too.
		resp := func() *Response {
			defer s.pending.Done()
			return s.shedAnswer(&req, rtr)
		}()
		status := 200
		if resp.Err != nil {
			status = resp.Err.Code.httpStatus()
		}
		respond(status, resp)
		return
	}

	resp := <-t.done
	status := 200
	if resp.Err != nil {
		status = resp.Err.Code.httpStatus()
	}
	respond(status, resp)
}

// reject counts and writes one typed-error response.
func (s *Server) reject(respond func(int, *Response), id int, code ErrCode, format string, args ...any) {
	s.reg.Counter("serve.rejected").Inc()
	respond(code.httpStatus(), errResponse(id, code, format, args...))
}

// worker consumes admitted tasks until the queue closes on drain.
func (s *Server) worker() {
	defer s.workers.Done()
	for t := range s.queue {
		s.reg.Gauge("serve.queue_depth").Set(int64(len(s.queue)))
		wait := time.Since(t.enq)
		s.reg.Histogram("serve.queue_wait_ns").Observe(int64(wait))
		s.reg.Gauge("serve.inflight").Add(1)
		resp := s.guardedAnswer(t)
		resp.QueueNs = int64(wait)
		s.reg.Gauge("serve.inflight").Add(-1)
		t.done <- resp
		s.pending.Done()
	}
}

// guardedAnswer runs one solve with the worker-level panic boundary:
// whatever escapes the supervisor (encoding bugs, fault injections
// outside the solver's own guards) becomes a typed internal error, not
// a dead worker.
func (s *Server) guardedAnswer(t *task) (resp *Response) {
	defer func() {
		if v := recover(); v != nil {
			s.reg.Counter("serve.panics_contained").Inc()
			if s.log != nil {
				s.log.Error("worker panic contained", "query", t.req.Spec.Name(), "value", fmt.Sprint(v))
			}
			resp = errResponse(t.req.Spec.ID, ErrInternal, "contained worker panic: %s", trim(fmt.Sprint(v)))
		}
	}()
	return s.answer(t)
}

// answer runs the full supervised solve for one request through the
// workload's producer and adds what serving needs: typed errors, the
// per-request tracer and retry seed, the quality counters and the
// report for the flight recorder.
func (s *Server) answer(t *task) *Response {
	req := t.req
	tr := t.tr
	if tr == nil {
		// Internal callers without a per-request fork fall back to the
		// service tracer.
		tr = s.tr
	}
	resp := &Response{Schema: ResponseSchema, ID: req.Spec.ID, Name: req.Spec.Name()}
	// The retry seed jitters per request, so a fault that survives one
	// request's perturbed-order retry is explored differently by the
	// next instead of replaying the identical crash path fleet-wide.
	n := s.reqSeq.Add(1)
	seed := s.cfg.Workload.Seed ^ int64(uint64(n)*0x9e3779b97f4a7c15)
	a, out, rep, err := s.cfg.Workload.Solve(t.ctx, s.newEnc, req.Spec, tr, seed)
	if err != nil {
		s.reg.Counter("serve.rejected").Inc()
		resp.Err = &ErrorInfo{Code: ErrBadRequest, Message: trim(err.Error())}
		return resp
	}
	t.explain = rep
	resp.Answer = a
	resp.Retries = out.Retries
	resp.PanicsRecovered = out.PanicsRecovered

	if out.Quality == super.Failed {
		// The ladder produced nothing usable; keep the wire contract
		// (never an untyped failure) by converting to a typed error
		// that claims no answer.
		s.reg.Counter("serve.failed").Inc()
		msg := "no usable result"
		if out.Min.Err != nil {
			msg = out.Min.Err.Error()
		} else if out.Max.Err != nil {
			msg = out.Max.Err.Error()
		}
		resp.Quality, resp.Lb, resp.Ub = "", 0, 0
		resp.Err = &ErrorInfo{Code: ErrInternal, Message: trim("ladder exhausted: " + msg)}
		return resp
	}
	s.countQuality(resp.Quality)
	return resp
}

// shedAnswer is the overload path: no queue, no solver — the spec's
// sampled fallback (workload.Config.Fallback) with ShedSamples worlds,
// answered at the sampled ladder rung. tr is the request's forked
// tracer (may be nil).
func (s *Server) shedAnswer(req *Request, tr *obs.Tracer) (resp *Response) {
	defer func() {
		if v := recover(); v != nil {
			s.reg.Counter("serve.panics_contained").Inc()
			resp = errResponse(req.Spec.ID, ErrInternal, "contained shed panic: %s", trim(fmt.Sprint(v)))
		}
	}()
	resp = &Response{Schema: ResponseSchema, ID: req.Spec.ID, Name: req.Spec.Name()}
	if s.cfg.ShedSamples < 1 {
		s.reg.Counter("serve.rejected").Inc()
		resp.Err = &ErrorInfo{Code: ErrOverloaded, Message: "query queue is full and shed sampling is disabled"}
		return resp
	}
	s.reg.Counter("serve.shed").Inc()
	defer tr.Start("serve.shed", obs.Int("samples", s.cfg.ShedSamples)).End()
	start := time.Now()
	enc := s.newEnc()
	obj, _, err := req.Spec.Build(enc)
	if err != nil {
		s.reg.Counter("serve.rejected").Inc()
		resp.Err = &ErrorInfo{Code: ErrBadRequest, Message: trim(err.Error())}
		return resp
	}
	lo, hi, _ := s.cfg.Workload.Fallback(enc, obj, req.Spec, s.cfg.ShedSamples)()
	resp.Answer = workload.Answer{Quality: "sampled", Shed: true, Lb: lo, Ub: hi,
		LatencyNs: int64(time.Since(start))}
	s.countQuality(resp.Quality)
	return resp
}

// countQuality bumps the per-rung answer counter.
func (s *Server) countQuality(q string) {
	switch q {
	case "exact":
		s.reg.Counter("serve.exact").Inc()
	case "proven-interval":
		s.reg.Counter("serve.proven_interval").Inc()
	case "sampled":
		s.reg.Counter("serve.sampled").Inc()
	}
}

// faultPlan parses the test-only X-Licm-Fault header
// ("<site>:<hit>:<action>", e.g. "ctrl-batch:0:panic" or
// "lp-pivot:3:jitter-nan"). Servers without AllowFaultHeader reject
// any attempt loudly rather than silently ignoring it.
func (s *Server) faultPlan(r *http.Request) (*faultinject.Plan, error) {
	h := r.Header.Get("X-Licm-Fault")
	if h == "" {
		return nil, nil
	}
	if !s.cfg.AllowFaultHeader {
		return nil, fmt.Errorf("serve: fault injection is not enabled on this server")
	}
	parts := strings.Split(h, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("serve: fault header %q, want site:hit:action", h)
	}
	var plan faultinject.Plan
	switch parts[0] {
	case "ctrl-batch":
		plan.Site = faultinject.CtrlBatch
	case "lp-pivot":
		plan.Site = faultinject.LPPivot
	default:
		return nil, fmt.Errorf("serve: unknown fault site %q", parts[0])
	}
	hit, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || hit < 0 {
		return nil, fmt.Errorf("serve: bad fault hit %q", parts[1])
	}
	plan.Hit = hit
	switch parts[2] {
	case "panic":
		plan.Action = faultinject.Panic
	case "cancel":
		plan.Action = faultinject.Cancel
	case "jitter-nan":
		plan.Action = faultinject.JitterNaN
	case "jitter-inf":
		plan.Action = faultinject.JitterInf
	case "none":
		plan.Action = faultinject.None
	default:
		return nil, fmt.Errorf("serve: unknown fault action %q", parts[2])
	}
	return &plan, nil
}
