package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"licm/internal/obs"
	"licm/internal/serve"
	"licm/internal/workload"
)

// served answers queries through serve.Server over loopback HTTP, the
// path licmd serves: admission and queueing, HTTP/JSON, the flight
// recorder, and the ExplainRecorder on every request. Clients run a
// closed loop: each sends its next query when its previous answer is
// in.
type served struct {
	cfg     serve.Config
	srv     *serve.Server
	client  *serve.Client
	hc      *http.Client
	clients int
}

// serveConfig mirrors licmd's: a metrics registry, the given worker
// count and no default deadline.
func serveConfig(st *store, workers int) serve.Config {
	wl := st.config()
	wl.Metrics = obs.NewRegistry()
	return serve.Config{Workload: wl, Workers: workers}
}

func newServed(st *store, clients int) (*served, error) {
	e := &served{cfg: serveConfig(st, clients), clients: clients}
	srv, addr, err := startServer(e.cfg)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	e.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	e.client = &serve.Client{BaseURL: addr, HTTPClient: e.hc}
	return e, nil
}

// startServer builds and starts a server on a free loopback port and
// returns once /readyz answers 200.
func startServer(cfg serve.Config) (*serve.Server, string, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, "", err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", errors.Join(err, drain(srv))
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	c := &serve.Client{BaseURL: addr, HTTPClient: hc}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		err := c.Readyz(ctx)
		if err == nil {
			return srv, addr, nil
		}
		if ctx.Err() != nil {
			return nil, "", errors.Join(fmt.Errorf("server at %s never became ready: %w", addr, err), drain(srv))
		}
		time.Sleep(time.Millisecond)
	}
}

func drain(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}

// setupSample times serve.New, Start and the first 200 from /readyz
// of a second server over the same store, with a registry of its own
// as a second licmd would have, then drains it untimed.
func (e *served) setupSample() (time.Duration, error) {
	cfg := e.cfg
	cfg.Workload.Metrics = obs.NewRegistry()
	runtime.GC()
	t0 := time.Now()
	srv, _, err := startServer(cfg)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, drain(srv)
}

func (e *served) close() error {
	e.hc.CloseIdleConnections()
	return drain(e.srv)
}

// query sends one spec and turns the response into an answer: a
// transport error or a typed serve error is a failed query.
func (e *served) query(sp workload.Spec) (answer, *serve.Response) {
	t0 := time.Now()
	resp, err := e.client.Query(context.Background(), &serve.Request{Schema: workload.SpecSchema, Spec: sp})
	a := answer{spec: sp, latency: time.Since(t0)}
	switch {
	case err != nil:
		a.err = err
	case resp.Err != nil:
		a.err = fmt.Errorf("serve error %s: %s", resp.Err.Code, resp.Err.Message)
	default:
		a.quality, a.lb, a.ub, a.infeasible = resp.Quality, resp.Lb, resp.Ub, resp.Infeasible
	}
	return a, resp
}

// each runs f over specs from e.clients goroutines pulling from one
// shared list, and returns once all have finished.
func (e *served) each(specs []workload.Spec, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

func (e *served) answerAll(specs []workload.Spec) []answer {
	out := make([]answer, len(specs))
	e.each(specs, func(i int) { out[i], _ = e.query(specs[i]) })
	return out
}

// traced answers specs with a client-side span around each round trip
// and splits it with the response's own figures: queue wait, answer
// time, and the rest (admission, HTTP/JSON, the flight recorder).
func (e *served) traced(tr *obs.Tracer, specs []workload.Spec, ls *layers) []answer {
	out := make([]answer, len(specs))
	resps := make([]*serve.Response, len(specs))
	e.each(specs, func(i int) {
		sp := tr.Fork(nil, obs.Int("query_id", specs[i].ID)).Start("serve.request", obs.Str("name", specs[i].Name()))
		out[i], resps[i] = e.query(specs[i])
		sp.End()
	})
	for i, r := range resps {
		if r == nil || r.Err != nil {
			continue
		}
		ls.answerNs += r.LatencyNs
		ls.queueNs += r.QueueNs
		ls.overheadNs += int64(out[i].latency) - r.LatencyNs - r.QueueNs
		ls.components += int64(r.Components)
	}
	return out
}
