package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"licm/internal/cert"
	"licm/internal/expr"
	"licm/internal/solver"
)

// liveCerts certifies a real solve (knapsack + cardinality groups)
// and returns the JSONL bytes — the same artifact licmq -certify
// writes.
func liveCerts(t *testing.T, cripple bool) []byte {
	t.Helper()
	const n = 18
	obj := expr.Lin{}
	knap := expr.Lin{}
	for v := 0; v < n; v++ {
		obj = obj.AddTerm(expr.Var(v), int64(1+(v*7)%5))
		knap = knap.AddTerm(expr.Var(v), int64(1+(v*3)%4))
	}
	cons := []expr.Constraint{expr.NewConstraint(knap, expr.LE, 14)}
	for g := 0; g < 3; g++ {
		lo := expr.Var(g * 6)
		cons = append(cons,
			expr.NewConstraint(expr.Sum(lo, lo+1, lo+2, lo+3, lo+4, lo+5), expr.LE, 3),
			expr.NewConstraint(expr.Sum(lo, lo+1), expr.GE, 1))
	}
	p := &solver.Problem{NumVars: n, Constraints: cons, Objective: obj}
	rec := &solver.ExplainRecorder{}
	opts := solver.DefaultOptions()
	if cripple {
		opts.UseLP = false
		opts.MaxNodes = 20
	}
	opts.Explain = rec
	if _, _, err := solver.Bounds(context.Background(), p, opts); err != nil && !cripple {
		t.Fatal(err)
	}
	certs, err := cert.Build("q1", "row", 2, solver.Certify(context.Background(), rec))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, c := range certs {
		if err := cert.WriteJSONL(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func writeTemp(t *testing.T, name string, content []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runVerify(t *testing.T, stdin []byte, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, bytes.NewReader(stdin), &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestVerifyClean(t *testing.T) {
	path := writeTemp(t, "certs.jsonl", liveCerts(t, false))
	code, out, stderr := runVerify(t, nil, path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "q1 max: verified") || !strings.Contains(out, "q1 min: verified") {
		t.Fatalf("summary lines missing from output: %s", out)
	}
}

func TestVerifyStdin(t *testing.T) {
	code, _, stderr := runVerify(t, liveCerts(t, false), "-")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}

func TestVerifyMutateCheck(t *testing.T) {
	path := writeTemp(t, "certs.jsonl", liveCerts(t, false))
	code, _, stderr := runVerify(t, nil, "-mutate-check", path)
	if code != 0 {
		t.Fatalf("-mutate-check exit %d, stderr: %s", code, stderr)
	}
}

// TestVerifyRejectsTextTamper mirrors the CI gate's corruption: blunt
// textual edits to the JSONL must flip the exit to 1.
func TestVerifyRejectsTextTamper(t *testing.T) {
	clean := string(liveCerts(t, false))
	for name, tampered := range map[string]string{
		"value-digit": strings.Replace(clean, `"value":`, `"value":9`, 1),
		"schema-tag":  strings.ReplaceAll(clean, "licm-cert/1", "licm-cert/0"),
		"not-json":    "{\n",
	} {
		path := writeTemp(t, "bad.jsonl", []byte(tampered))
		code, _, stderr := runVerify(t, nil, path)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1 (stderr: %s)", name, code, stderr)
		}
		if !strings.Contains(stderr, "REJECTED") {
			t.Errorf("%s: rejection not reported: %s", name, stderr)
		}
	}
}

// TestVerifyStrictDegraded: certificates from an unproven solve are
// accepted (exit 0) by default but exit 3 under -strict.
func TestVerifyStrictDegraded(t *testing.T) {
	data := liveCerts(t, true)
	if len(data) == 0 {
		t.Skip("crippled solve recorded no runs")
	}
	path := writeTemp(t, "degraded.jsonl", data)
	if code, _, stderr := runVerify(t, nil, path); code != 0 {
		t.Fatalf("default mode exit %d, want 0 (stderr: %s)", code, stderr)
	}
	if code, _, _ := runVerify(t, nil, "-strict", path); code != 3 {
		t.Fatalf("-strict exit %d, want 3", code)
	}
}

func TestVerifyUsage(t *testing.T) {
	if code, _, _ := runVerify(t, nil); code != 2 {
		t.Fatal("no arguments should exit 2")
	}
	if code, _, _ := runVerify(t, nil, filepath.Join(t.TempDir(), "absent.jsonl")); code != 2 {
		t.Fatal("missing file should exit 2")
	}
}

func TestVerifyJSONOutput(t *testing.T) {
	path := writeTemp(t, "certs.jsonl", liveCerts(t, false))
	code, out, stderr := runVerify(t, nil, "-json", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d verdict lines, want 2", len(lines))
	}
	for _, line := range lines {
		var v struct {
			Input    string `json:"input"`
			Query    string `json:"Query"`
			Verified int    `json:"Verified"`
		}
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("verdict line is not JSON: %v\n%s", err, line)
		}
		if v.Input != path || v.Verified == 0 {
			t.Fatalf("unexpected verdict: %s", line)
		}
	}
}
