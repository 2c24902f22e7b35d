package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"licm/internal/workload"
)

// TestServeChaosMatrix is the serving half of the chaos suite: a live
// server with fault injection enabled is hammered with every
// site/action combination across several hit indexes, interleaved with
// clean queries, all concurrently. The assertion is the daemon's
// protocol contract, end to end over real HTTP: every single response
// is exact, proven-interval, sampled, or a structured typed error —
// no bare 5xx, no hung connection, no escaped panic. Client.Query
// already rejects any contract violation, so an err from it is a
// chaos finding. Each plan rides its own request's context, so a clean
// request must come back untouched: no recovered panic, no retry.
func TestServeChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow under -short")
	}
	s, client := testServer(t, func(c *Config) {
		c.AllowFaultHeader = true
		c.Workers = 4
	})
	specs := testSpecs(t, 4)

	var faults []string
	for _, site := range []string{"ctrl-batch", "lp-pivot"} {
		for _, action := range []string{"panic", "cancel", "jitter-nan", "jitter-inf"} {
			for _, hit := range []int{0, 3} {
				faults = append(faults, fmt.Sprintf("%s:%d:%s", site, hit, action))
			}
		}
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	var panicsSeen, retriesSeen, sampledSeen int
	record := func(resp *Response, err error, label string) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", label, err))
			return
		}
		if label == "clean" && (resp.PanicsRecovered != 0 || resp.Retries != 0) {
			failures = append(failures, fmt.Sprintf("clean request %d hit by another request's fault: %d panics, %d retries",
				resp.ID, resp.PanicsRecovered, resp.Retries))
		}
		panicsSeen += resp.PanicsRecovered
		retriesSeen += resp.Retries
		if resp.Quality == "sampled" {
			sampledSeen++
		}
	}

	for i, fh := range faults {
		wg.Add(1)
		go func(i int, fh string) {
			defer wg.Done()
			c := &Client{BaseURL: client.BaseURL, FaultHeader: fh}
			sp := specs[i%len(specs)]
			resp, err := c.Query(ctx, &Request{Schema: workload.SpecSchema, Spec: sp})
			record(resp, err, fh)
		}(i, fh)
		// A clean query races every faulted one: injections must never
		// corrupt an innocent bystander's answer either.
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Query(ctx, &Request{Spec: specs[(i+1)%len(specs)]})
			record(resp, err, "clean")
		}(i)
	}
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("%d protocol-level failures under chaos:\n%s",
			len(failures), joinLines(failures))
	}
	// The matrix must actually have provoked the robustness machinery:
	// injected panics at hit 0 land in the first solve of some request,
	// so contained panics and perturbed-order retries must show up.
	if panicsSeen == 0 || retriesSeen == 0 {
		t.Errorf("chaos matrix provoked no contained panics (%d) or retries (%d) — injections not reaching the solver",
			panicsSeen, retriesSeen)
	}
	t.Logf("chaos: %d responses, %d panics contained, %d retries, %d sampled-rung answers",
		2*len(faults), panicsSeen, retriesSeen, sampledSeen)

	// Drain under pressure: fire one more volley and drain while it is
	// in flight. Every response must still satisfy the contract, and
	// the drain itself must complete cleanly.
	const volley = 4
	var wg2 sync.WaitGroup
	for i := 0; i < volley; i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			resp, err := client.Query(ctx, &Request{Spec: specs[i%len(specs)]})
			if err != nil {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("drain volley: %v", err))
				mu.Unlock()
				return
			}
			if resp.Err != nil && resp.Err.Code != ErrDraining {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("drain volley: unexpected %s: %s", resp.Err.Code, resp.Err.Message))
				mu.Unlock()
			}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.reg.Counter("serve.requests").Value() < int64(2*len(faults)+volley) {
		if time.Now().After(deadline) {
			t.Fatal("drain volley never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	dctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	wg2.Wait()
	if len(failures) > 0 {
		t.Fatalf("%d protocol-level failures in the drain volley:\n%s",
			len(failures), joinLines(failures))
	}
}

func joinLines(ss []string) string {
	out := ""
	for _, s := range ss {
		out += "  " + s + "\n"
	}
	return out
}
