package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"licm/internal/workload"
)

// entry builds a minimal recorded request for recorder tests.
func entry(id string, totalNs int64, mutate func(*RecordedRequest)) *RecordedRequest {
	e := &RecordedRequest{
		RequestID: id,
		Start:     time.Unix(0, 0),
		TotalNs:   totalNs,
		Response:  &Response{Schema: ResponseSchema, Answer: workload.Answer{RequestID: id, Quality: "exact"}},
	}
	if mutate != nil {
		mutate(e)
	}
	return e
}

func TestRecorderBadges(t *testing.T) {
	rec := NewRecorder(4)
	rec.Observe(entry("fast-exact", 10, nil))
	rec.Observe(entry("degraded", 20, func(e *RecordedRequest) {
		e.Response.Quality = "sampled"
	}))
	rec.Observe(entry("shed", 30, func(e *RecordedRequest) {
		e.Response.Quality = "sampled"
		e.Response.Shed = true
	}))
	rec.Observe(entry("panicked", 40, func(e *RecordedRequest) {
		e.Response.PanicsRecovered = 1
	}))
	rec.Observe(entry("late", 50, func(e *RecordedRequest) {
		e.DeadlineNs = 25
	}))

	want := map[string][]string{
		"fast-exact": {BadgeSlowest},
		"degraded":   {BadgeDegraded, BadgeSlowest},
		"shed":       {BadgeDegraded, BadgeShed, BadgeSlowest},
		"panicked":   {BadgePanicked, BadgeSlowest},
		// The worst-4 set was full when "late" arrived but it is the
		// slowest request seen, so it evicts "fast-exact".
		"late": {BadgeDeadlineViolated, BadgeSlowest},
	}
	snap := rec.Snapshot()
	got := map[string][]string{}
	for _, e := range snap {
		got[e.RequestID] = e.Badges
	}
	if _, ok := got["fast-exact"]; ok {
		t.Error("fast-exact survived eviction from a full worst-N set with no badge")
	}
	for id, badges := range want {
		if id == "fast-exact" {
			continue
		}
		if !equalStrings(got[id], badges) {
			t.Errorf("%s badges = %v, want %v", id, got[id], badges)
		}
	}
	if len(snap) != 4 {
		t.Errorf("retained %d entries, want 4", len(snap))
	}
	// Slowest-first ordering.
	for i := 1; i < len(snap); i++ {
		if snap[i].TotalNs > snap[i-1].TotalNs {
			t.Errorf("snapshot not slowest-first at %d: %d after %d", i, snap[i].TotalNs, snap[i-1].TotalNs)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestRecorderConcurrentWorstN is the race-mode forensic guarantee: a
// worker pool hammering Observe while snapshots and dumps are drawn
// concurrently must not lose any of the N slowest requests, and the
// final drain-time dump must be clean. Run with -race.
func TestRecorderConcurrentWorstN(t *testing.T) {
	const (
		depth      = 8
		workers    = 8
		perWorker  = 200
		totalCount = workers * perWorker
	)
	rec := NewRecorder(depth)

	// Pre-assign every request a distinct latency so "the N slowest"
	// is unambiguous regardless of interleaving.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: snapshots and dumps drawn mid-flight must
	// never observe torn state (the race detector checks the rest).
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = rec.Snapshot()
				var buf bytes.Buffer
				if err := rec.WriteDump(&buf); err != nil {
					t.Errorf("mid-flight dump: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := int64(w*perWorker + i + 1)
				e := entry(fmt.Sprintf("r-%d", n), n, nil)
				if n%7 == 0 {
					e.Response.Quality = "sampled"
				}
				rec.Observe(e)
			}
		}(w)
	}
	// Wait for the writers, then release the readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done

	// Every one of the depth slowest requests (latencies totalCount,
	// totalCount-1, ...) must be retained with the slowest badge.
	snap := rec.Snapshot()
	byID := map[string]RecordedRequest{}
	for _, e := range snap {
		byID[e.RequestID] = e
	}
	for n := totalCount; n > totalCount-depth; n-- {
		id := fmt.Sprintf("r-%d", n)
		e, ok := byID[id]
		if !ok {
			t.Fatalf("slowest entry %s (latency %d) lost under concurrency", id, n)
		}
		if !hasBadge(e.Badges, BadgeSlowest) {
			t.Errorf("%s retained without the slowest badge: %v", id, e.Badges)
		}
	}

	// Clean dump after the drain: round-trips through the reader.
	var buf bytes.Buffer
	if err := rec.WriteDump(&buf); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if d.Schema != RequestsSchema || d.Depth != depth {
		t.Errorf("dump header = %q/%d, want %q/%d", d.Schema, d.Depth, RequestsSchema, depth)
	}
	if len(d.Entries) != len(snap) {
		t.Errorf("dump holds %d entries, snapshot %d", len(d.Entries), len(snap))
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var rec *Recorder
	rec.Observe(entry("x", 1, nil))
	if got := rec.Snapshot(); got != nil {
		t.Errorf("nil Snapshot = %v, want nil", got)
	}
	var buf bytes.Buffer
	if err := rec.WriteDump(&buf); err != nil {
		t.Fatalf("nil WriteDump: %v", err)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatalf("nil dump round-trip: %v", err)
	}
	if len(d.Entries) != 0 || d.Depth != 0 {
		t.Errorf("nil dump = %d entries depth %d, want empty", len(d.Entries), d.Depth)
	}

	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("nil recorder handler status %d, want 404", resp.StatusCode)
	}
}

func TestReadDumpRejectsForeignSchemas(t *testing.T) {
	if _, err := ReadDump(strings.NewReader(`{"schema":"licm-bench/1"}`)); err == nil {
		t.Error("licm-bench/1 accepted as a requests dump")
	}
	if _, err := ReadDump(strings.NewReader(`{"schema":"licm-requests/9"}`)); err == nil {
		t.Error("future schema major accepted")
	}
	if _, err := ReadDump(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}
