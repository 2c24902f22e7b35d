package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"licm/internal/workload"
)

// Client queries a running licmd over HTTP. The zero HTTPClient uses a
// dedicated client with a generous overall timeout; per-query budgets
// belong in Request.DeadlineMs (enforced server-side) or the context.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080". A bare
	// host:port is accepted and gets the http scheme.
	BaseURL string
	// HTTPClient overrides the transport; nil uses a private client
	// with a 5-minute timeout.
	HTTPClient *http.Client
	// FaultHeader, when non-empty, is sent as X-Licm-Fault on every
	// query — the chaos harness's lever. Servers without
	// AllowFaultHeader reject it with a typed bad-request error.
	FaultHeader string
}

// base normalizes BaseURL into a scheme-qualified root without a
// trailing slash.
func (c *Client) base() string {
	b := strings.TrimRight(c.BaseURL, "/")
	if !strings.Contains(b, "://") {
		b = "http://" + b
	}
	return b
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 5 * time.Minute}
}

// Query answers one request. A transport failure returns an error; any
// HTTP response — success or typed error, whatever the status code —
// decodes into a Response that is then checked against the protocol
// contract, so a malformed or contract-violating server answer also
// surfaces as an error.
func (c *Client) Query(ctx context.Context, req *Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base()+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.FaultHeader != "" {
		hreq.Header.Set("X-Licm-Fault", c.FaultHeader)
	}
	hres, err := c.http().Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("serve: query %s: %w", req.Spec.Name(), err)
	}
	defer hres.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hres.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("serve: read response: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("serve: status %d with undecodable body %q: %w",
			hres.StatusCode, trim(string(raw)), err)
	}
	if err := resp.Protocol(); err != nil {
		return nil, fmt.Errorf("serve: status %d: %w", hres.StatusCode, err)
	}
	return &resp, nil
}

// Answer adapts the client to workload.Config.Answer, making a remote
// licmd the answer source of a workload run: served answers, local
// ground truth and scoring. Typed server errors become run errors —
// the workload harness treats an errored query as a failed run, which
// is exactly right for a gate.
func (c *Client) Answer(sp workload.Spec) (*workload.Answer, error) {
	resp, err := c.Query(context.Background(), &Request{Schema: workload.SpecSchema, Spec: sp})
	if err != nil {
		return nil, err
	}
	if resp.Err != nil {
		return nil, fmt.Errorf("serve: %s: server error %s: %s", sp.Name(), resp.Err.Code, resp.Err.Message)
	}
	return &resp.Answer, nil
}

// Healthz reports whether the server's liveness endpoint answers 200.
func (c *Client) Healthz(ctx context.Context) error {
	return c.check(ctx, "/healthz")
}

// Readyz reports whether the server currently accepts new queries.
func (c *Client) Readyz(ctx context.Context) error {
	return c.check(ctx, "/readyz")
}

func (c *Client) check(ctx context.Context, path string) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base()+path, nil)
	if err != nil {
		return err
	}
	hres, err := c.http().Do(hreq)
	if err != nil {
		return err
	}
	defer hres.Body.Close()
	io.Copy(io.Discard, io.LimitReader(hres.Body, 4096)) //nolint:errcheck // drain for keep-alive
	if hres.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: %s: status %d", path, hres.StatusCode)
	}
	return nil
}
