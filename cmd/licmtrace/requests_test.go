package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"licm/internal/serve"
	"licm/internal/workload"
)

// writeDump builds a synthetic flight-recorder dump on disk.
func writeDump(t *testing.T, name string, mutate func(*serve.Recorder)) string {
	t.Helper()
	rec := serve.NewRecorder(4)
	mutate(rec)
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteDump(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func reqEntry(id string, totalNs int64, quality string, panicked bool) *serve.RecordedRequest {
	resp := &serve.Response{Schema: serve.ResponseSchema, Name: "q1-count",
		Answer: workload.Answer{RequestID: id, Quality: quality}}
	if panicked {
		resp.PanicsRecovered = 1
	}
	return &serve.RecordedRequest{
		RequestID: id,
		Start:     time.Unix(0, 0).UTC(),
		TotalNs:   totalNs,
		Response:  resp,
	}
}

func TestRequestsRenderAndStrict(t *testing.T) {
	clean := writeDump(t, "clean.json", func(rec *serve.Recorder) {
		rec.Observe(reqEntry("r-1", 1000, "exact", false))
		rec.Observe(reqEntry("r-2", 2000, "sampled", false))
	})
	bad := writeDump(t, "bad.json", func(rec *serve.Recorder) {
		rec.Observe(reqEntry("r-1", 1000, "exact", false))
		rec.Observe(reqEntry("r-3", 3000, "exact", true))
	})

	var stdout, stderr bytes.Buffer
	if code := run([]string{"requests", clean}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("render exit %d\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"r-1", "r-2", "degraded", "slowest"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output lacks %q:\n%s", want, out)
		}
	}

	// -strict passes on a clean dump, flags retained panics.
	if code := run([]string{"requests", "-strict", clean}, strings.NewReader(""), &bytes.Buffer{}, &stderr); code != 0 {
		t.Errorf("strict on clean dump: exit %d", code)
	}
	if code := run([]string{"requests", "-strict", bad}, strings.NewReader(""), &bytes.Buffer{}, &stderr); code != 1 {
		t.Errorf("strict on panicked dump: exit %d, want 1", code)
	}

	// -id detail view.
	stdout.Reset()
	if code := run([]string{"requests", "-id", "r-2", clean}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("detail exit %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "r-2") || !strings.Contains(stdout.String(), "sampled") {
		t.Errorf("detail output:\n%s", stdout.String())
	}
	if code := run([]string{"requests", "-id", "absent", clean}, strings.NewReader(""), &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("absent id: exit %d, want 2", code)
	}
}

func TestRequestsDiff(t *testing.T) {
	clean := writeDump(t, "clean.json", func(rec *serve.Recorder) {
		rec.Observe(reqEntry("r-1", 1000, "sampled", false))
	})
	bad := writeDump(t, "bad.json", func(rec *serve.Recorder) {
		rec.Observe(reqEntry("r-2", 2000, "exact", true))
	})

	var stdout, stderr bytes.Buffer
	// Self-diff is clean; degraded retention alone never breaches.
	if code := run([]string{"requests", "-diff", clean, clean}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("self-diff exit %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "no bad-outcome retention growth") {
		t.Errorf("self-diff output:\n%s", stdout.String())
	}

	// Panicked retention growth breaches with exit 1.
	stdout.Reset()
	if code := run([]string{"requests", "-diff", clean, bad}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Fatalf("growth diff exit %d, want 1\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "panicked retention grew 0 -> 1") {
		t.Errorf("growth diff output:\n%s", stdout.String())
	}

	// A foreign schema is a usage error, not a silent pass.
	foreign := filepath.Join(t.TempDir(), "foreign.json")
	if err := os.WriteFile(foreign, []byte(`{"schema":"licm-bench/1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"requests", foreign}, strings.NewReader(""), &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("foreign schema: exit %d, want 2", code)
	}
}
