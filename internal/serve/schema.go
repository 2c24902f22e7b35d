package serve

import (
	"fmt"
	"strings"

	"licm/internal/workload"
)

// ResponseSchema versions the serve answer record. The shape mirrors
// the measured half of a licm-load/1 query record (quality, bounds,
// proven-ness, latency, problem shape), so the workload tooling can
// score a served stream the same way it scores local solves.
const ResponseSchema = "licm-serve/1"

// RequestIDHeader carries the request id on both directions of the
// query protocol: a client may propose an id (so a caller's own
// correlation id flows into the server's forensics), and the server
// always echoes the effective id on the response. Proposed ids are
// restricted to [A-Za-z0-9._-]{1,64}; anything else is rejected as a
// bad request rather than laundered into traces and dumps.
const RequestIDHeader = "X-Licm-Request-Id"

// maxRequestIDLen bounds accepted client-proposed request ids.
const maxRequestIDLen = 64

// ValidRequestID reports whether a client-proposed request id is
// acceptable on the wire and in trace attributes.
func ValidRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Request is the body of POST /v1/query: one licm-queries/1 spec plus
// per-request serving controls.
type Request struct {
	// Schema, when present, must be the licm-queries/1 tag the spec
	// line format carries; an empty schema is accepted so hand-written
	// requests stay ergonomic.
	Schema string `json:"schema,omitempty"`
	workload.Spec
	// DeadlineMs caps this query's end-to-end budget — admission wait
	// plus solve — in milliseconds. The server propagates it into the
	// solve context, so a request that overstays its budget degrades
	// down the anytime ladder instead of hogging a worker. 0 uses the
	// server's default; values above the server's maximum are clamped.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// Validate checks the request envelope and the embedded spec.
func (r *Request) Validate() error {
	if r.Schema != "" && r.Schema != workload.SpecSchema {
		return fmt.Errorf("serve: request schema %q, want %s", r.Schema, workload.SpecSchema)
	}
	if r.DeadlineMs < 0 {
		return fmt.Errorf("serve: negative deadline_ms %d", r.DeadlineMs)
	}
	return r.Spec.Validate()
}

// ErrCode classifies a structured serve error. The daemon's protocol
// contract is that every response is either a ladder-tagged answer
// (exact, proven-interval, sampled) or one of these typed errors —
// never a bare 5xx, a hung connection or an escaped panic.
type ErrCode string

const (
	// ErrBadRequest rejects an unparsable body or an invalid spec.
	ErrBadRequest ErrCode = "bad-request"
	// ErrDraining rejects new queries while the server drains after
	// SIGTERM; in-flight queries still complete.
	ErrDraining ErrCode = "draining"
	// ErrOverloaded rejects a query when even the sampled shed path is
	// unavailable (shed sampling disabled by configuration).
	ErrOverloaded ErrCode = "overloaded"
	// ErrInternal reports a contained failure: a handler panic caught
	// at the request boundary, or a ladder outcome with no usable
	// value on either side.
	ErrInternal ErrCode = "internal"
)

// httpStatus maps a typed error to its transport status code.
func (c ErrCode) httpStatus() int {
	switch c {
	case ErrBadRequest:
		return 400
	case ErrDraining, ErrOverloaded:
		return 503
	default:
		return 500
	}
}

// ErrorInfo is the structured error payload of a refused or failed
// query.
type ErrorInfo struct {
	Code    ErrCode `json:"code"`
	Message string  `json:"message"`
}

// Response is one answered (or refused) query. Exactly one of the two
// shapes is populated: a ladder answer (Quality set, Err nil) or a
// typed error (Err set, Quality empty). The measured answer is the
// embedded workload.Answer, the same struct a licm-load/1 record
// embeds; its Quality is never "failed" here (a ladder outcome with no
// usable value surfaces as an ErrInternal typed error instead), and
// its RequestID is the server-assigned (or client-proposed and
// accepted) id of this request, echoed on the X-Licm-Request-Id
// response header as well. That id keys the server-side forensics: the
// request_id attribute on every trace span the request produced, the
// flight-recorder entry at /debug/licm/requests, and the request_id
// field of a licm-load/1 record scored against this server.
type Response struct {
	Schema string `json:"schema"`
	ID     int    `json:"id"`
	Name   string `json:"name,omitempty"`
	workload.Answer

	// QueueNs is the admission wait before a worker picked the query up.
	QueueNs int64 `json:"queue_ns,omitempty"`

	// Supervisor robustness counters for this request.
	Retries         int `json:"retries,omitempty"`
	PanicsRecovered int `json:"panics_recovered,omitempty"`

	// Err is the structured typed error of a refused or failed query.
	Err *ErrorInfo `json:"error,omitempty"`
}

// Protocol checks the daemon's response contract: schema tag present,
// and either a usable ladder answer or a fully-populated typed error.
// The chaos harness asserts this on every response it provokes.
func (r *Response) Protocol() error {
	if r.Schema != ResponseSchema {
		return fmt.Errorf("serve: response schema %q, want %s", r.Schema, ResponseSchema)
	}
	if r.Err != nil {
		if r.Err.Code == "" || r.Err.Message == "" {
			return fmt.Errorf("serve: typed error missing code or message: %+v", r.Err)
		}
		switch r.Err.Code {
		case ErrBadRequest, ErrDraining, ErrOverloaded, ErrInternal:
		default:
			return fmt.Errorf("serve: unknown error code %q", r.Err.Code)
		}
		if r.Quality != "" {
			return fmt.Errorf("serve: response carries both quality %q and error %q", r.Quality, r.Err.Code)
		}
		return nil
	}
	switch r.Quality {
	case "exact", "proven-interval", "sampled":
	default:
		return fmt.Errorf("serve: response quality %q is neither a servable ladder rung nor a typed error", r.Quality)
	}
	proven := r.Quality == "exact" || r.Quality == "proven-interval"
	if r.Proven != proven {
		return fmt.Errorf("serve: proven=%v inconsistent with quality %q", r.Proven, r.Quality)
	}
	if r.Proven && !r.Infeasible && r.Lb > r.Ub {
		return fmt.Errorf("serve: proven bounds inverted [%d, %d]", r.Lb, r.Ub)
	}
	if r.Shed && r.Quality != "sampled" {
		return fmt.Errorf("serve: shed answer with quality %q, want sampled", r.Quality)
	}
	return nil
}

// errResponse builds a typed-error response envelope.
func errResponse(id int, code ErrCode, format string, args ...any) *Response {
	return &Response{
		Schema: ResponseSchema,
		ID:     id,
		Err:    &ErrorInfo{Code: code, Message: fmt.Sprintf(format, args...)},
	}
}

// trim caps a message destined for a JSON error payload; injected
// panic values can drag arbitrary state along.
func trim(s string) string {
	s = strings.ReplaceAll(s, "\n", " ")
	if len(s) > 512 {
		s = s[:512] + "…"
	}
	return s
}
