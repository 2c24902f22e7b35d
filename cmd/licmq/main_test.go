package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"licm/internal/cert"
	"licm/internal/dataset"
	"licm/internal/explain"
	"licm/internal/solver"
)

var update = flag.Bool("update", false, "rewrite golden files")

// genInput writes a small deterministic dataset in licmgen format.
func genInput(t *testing.T) string {
	t.Helper()
	d, err := dataset.Generate(dataset.Config{
		NumTransactions: 60, NumItems: 32, AvgSize: 3, MaxSize: 8,
		ZipfS: 1.3, LocationRange: 10, PriceRange: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func runQ(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// stripTimings drops the wall-clock-dependent lines so the rest of the
// output can be golden-compared.
func stripTimings(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		switch {
		case strings.HasPrefix(line, "timing:"),
			strings.HasPrefix(line, "solve phases:"),
			strings.HasPrefix(line, "supervisor:"),
			strings.HasPrefix(line, "memory:"),
			strings.HasPrefix(line, "LP relaxation latency:"),
			strings.HasPrefix(line, "per-node latency:"),
			strings.HasPrefix(line, "Monte-Carlo"):
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestSupervisedExactGolden: a generous deadline yields an exact,
// quality-tagged answer and exit 0 even under -strict.
func TestSupervisedExactGolden(t *testing.T) {
	in := genInput(t)
	code, out, errBuf := runQ(t, "-in", in, "-scheme", "k", "-k", "2", "-query", "q1",
		"-deadline", "2m", "-strict")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s\nstdout:\n%s", code, errBuf, out)
	}
	checkGolden(t, "q1_exact.golden", stripTimings(out))
}

// TestStrictDegradedExitCode: an already-spent deadline forces the
// sampled rung of the ladder; -strict must surface that as exit 3
// while the output still names the degradation honestly.
func TestStrictDegradedExitCode(t *testing.T) {
	in := genInput(t)
	code, out, errBuf := runQ(t, "-in", in, "-scheme", "k", "-k", "2", "-query", "q1",
		"-deadline", "1ns", "-strict")
	if code != 3 {
		t.Fatalf("exit = %d, want 3; stderr:\n%s\nstdout:\n%s", code, errBuf, out)
	}
	if !strings.Contains(out, "quality=sampled") {
		t.Fatalf("degraded output does not carry the sampled tag:\n%s", out)
	}
	checkGolden(t, "q1_degraded.golden", stripTimings(out))
}

// TestStrictProvenIntervalExitCode: a node-capped bipartite solve hits
// the proven-interval rung — still exit 3 under -strict, with the
// outer interval printed.
func TestStrictProvenIntervalExitCode(t *testing.T) {
	in := genInput(t)
	code, out, errBuf := runQ(t, "-in", in, "-scheme", "bipartite", "-k", "3", "-query", "q1",
		"-deadline", "2m", "-maxnodes", "20000", "-strict")
	if code != 3 {
		t.Fatalf("exit = %d, want 3; stderr:\n%s\nstdout:\n%s", code, errBuf, out)
	}
	if !strings.Contains(out, "quality=proven-interval") {
		t.Fatalf("expected a proven-interval result:\n%s", out)
	}
	checkGolden(t, "q1_interval.golden", stripTimings(out))
}

// TestStrictWithoutDeadline: -strict alone engages the supervisor; an
// exact result exits 0.
func TestStrictWithoutDeadline(t *testing.T) {
	in := genInput(t)
	code, out, _ := runQ(t, "-in", in, "-scheme", "k", "-k", "2", "-query", "q1", "-strict")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "quality=exact") {
		t.Fatalf("expected an exact supervised result:\n%s", out)
	}
}

// TestDefaultRun: without -deadline or -strict the solve still runs
// under the supervisor and prints its exact answer with exit 0.
func TestDefaultRun(t *testing.T) {
	in := genInput(t)
	code, out, errBuf := runQ(t, "-in", in, "-scheme", "k", "-k", "2", "-query", "q1")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errBuf)
	}
	if !strings.Contains(out, "quality=exact bounds [") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// sideCounts reads the "<sense> side:" report line's node and LP-solve
// counts.
func sideCounts(t *testing.T, out, sense string) (nodes, lps int64) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		rest, ok := strings.CutPrefix(line, sense+" side: ")
		if !ok {
			continue
		}
		_, work, ok := strings.Cut(rest, " components, ")
		if !ok {
			t.Fatalf("%s side line carries no search counts: %q", sense, line)
		}
		if _, err := fmt.Sscanf(work, "%d nodes, %d LP solves", &nodes, &lps); err != nil {
			t.Fatalf("%s side line %q: %v", sense, line, err)
		}
		return nodes, lps
	}
	t.Fatalf("no %q side line in:\n%s", sense, out)
	return 0, 0
}

// TestPerSideCounts: the report prints each side's own search work.
// On this spec the max side is exact and the min side stops at the
// node budget, so the two sides search differently; each printed
// count must equal its own run in the same invocation's explain record.
func TestPerSideCounts(t *testing.T) {
	in := genInput(t)
	path := filepath.Join(t.TempDir(), "explain.jsonl")
	code, out, errBuf := runQ(t, "-in", in, "-scheme", "bipartite", "-k", "3", "-query", "q1",
		"-maxnodes", "20000", "-explain-json", path)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errBuf)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reps, err := explain.ReadJSONL(f, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || len(reps[0].Runs) != 2 {
		t.Fatalf("want one report with two runs, got %+v", reps)
	}
	for _, run := range reps[0].Runs {
		nodes, lps := sideCounts(t, out, run.Sense)
		if nodes != run.Nodes || lps != run.LPSolves {
			t.Errorf("%s side prints %d nodes, %d LP solves; its run recorded %d, %d",
				run.Sense, nodes, lps, run.Nodes, run.LPSolves)
		}
	}
	minNodes, _ := sideCounts(t, out, "min")
	maxNodes, _ := sideCounts(t, out, "max")
	if minNodes == maxNodes {
		t.Errorf("both sides searched %d nodes; the spec no longer tells them apart", minNodes)
	}
}

// TestLPExport: -lp writes the problem licmq solves; it reads back
// with solver.ReadLP as a maximization whose optimum is the max
// licmq prints.
func TestLPExport(t *testing.T) {
	in := genInput(t)
	path := filepath.Join(t.TempDir(), "q1.lp")
	code, out, errBuf := runQ(t, "-in", in, "-scheme", "k", "-k", "2", "-query", "q1", "-lp", path)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errBuf)
	}
	var lo, hi int64
	_, answer, _ := strings.Cut(out, "quality=exact bounds ")
	if _, err := fmt.Sscanf(answer, "[%d, %d]", &lo, &hi); err != nil {
		t.Fatalf("no exact answer in:\n%s", out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, sense, err := solver.ReadLP(f)
	if err != nil {
		t.Fatal(err)
	}
	if sense != solver.SenseMax {
		t.Fatalf("exported sense = %v, want max", sense)
	}
	res, err := solver.Maximize(context.Background(), p, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven || res.Value != hi {
		t.Errorf("exported problem maximizes to %d (proven %v); licmq printed max %d", res.Value, res.Proven, hi)
	}
	if want := fmt.Sprintf("(%d vars, %d constraints)", p.NumVars, len(p.Constraints)); !strings.Contains(out, want) {
		t.Errorf("export line does not name the file's size %s:\n%s", want, out)
	}
}

// TestBadFlagsExitTwo: unusable input is exit 2, distinct from solver
// errors (1) and strict degradation (3).
func TestBadFlagsExitTwo(t *testing.T) {
	if code, _, _ := runQ(t); code != 2 {
		t.Fatalf("missing -in: exit = %d, want 2", code)
	}
	if code, _, _ := runQ(t, "-in", filepath.Join(t.TempDir(), "nope.txt")); code != 2 {
		t.Fatalf("missing file: exit = %d, want 2", code)
	}
}

// TestExplainHuman: -explain prints the pruning funnel and a
// per-component table with fingerprints.
func TestExplainHuman(t *testing.T) {
	in := genInput(t)
	code, out, errBuf := runQ(t, "-in", in, "-scheme", "k", "-k", "2", "-query", "q1", "-explain")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errBuf)
	}
	if !strings.Contains(out, "explain: quality=exact") {
		t.Fatalf("missing explain header:\n%s", out)
	}
	for _, want := range []string{"pruned", "presolve fixed", "fingerprint", "share", "  max:", "  min:"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

// TestExplainJSON: -explain-json emits one valid licm-explain/1 line
// whose run totals match the per-component sums, and works both to a
// file and to stdout ("-").
func TestExplainJSON(t *testing.T) {
	in := genInput(t)
	path := filepath.Join(t.TempDir(), "explain.jsonl")
	code, _, errBuf := runQ(t, "-in", in, "-scheme", "k", "-k", "2", "-query", "q1",
		"-explain-json", path)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errBuf)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reps, err := explain.ReadJSONL(f, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("got %d reports, want 1", len(reps))
	}
	rep := reps[0]
	if rep.Query != "Q1" || rep.Scheme != "k" || rep.K != 2 {
		t.Errorf("report labels = %q/%q/%d", rep.Query, rep.Scheme, rep.K)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(rep.Runs))
	}
	for _, run := range rep.Runs {
		var nodes int64
		for _, c := range run.Components {
			nodes += c.Nodes
		}
		if nodes != run.Nodes {
			t.Errorf("%s: component nodes sum %d != run total %d", run.Sense, nodes, run.Nodes)
		}
	}

	// "-" routes the record to stdout after the human report.
	code, out, errBuf := runQ(t, "-in", in, "-scheme", "k", "-k", "2", "-query", "q1",
		"-explain-json", "-")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errBuf)
	}
	if !strings.Contains(out, `"schema":"licm-explain/1"`) {
		t.Fatalf("stdout does not carry the JSON record:\n%s", out)
	}
}

// TestExplainSupervised: the explain report rides along a supervised
// solve and carries the ladder's quality tag even on exit 3.
func TestExplainSupervised(t *testing.T) {
	in := genInput(t)
	path := filepath.Join(t.TempDir(), "explain.jsonl")
	code, _, errBuf := runQ(t, "-in", in, "-scheme", "bipartite", "-k", "3", "-query", "q1",
		"-deadline", "2m", "-maxnodes", "20000", "-strict", "-explain-json", path)
	if code != 3 {
		t.Fatalf("exit = %d, want 3; stderr:\n%s", code, errBuf)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reps, err := explain.ReadJSONL(f, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("got %d reports, want 1", len(reps))
	}
	if q := reps[0].Quality; q != "proven-interval" {
		t.Errorf("report quality = %q, want proven-interval", q)
	}
}

// TestCertifyFlag: -certify writes licm-cert/1 certificates that the
// independent verifier accepts, with the query labels attached.
func TestCertifyFlag(t *testing.T) {
	in := genInput(t)
	path := filepath.Join(t.TempDir(), "certs.jsonl")
	code, _, errBuf := runQ(t, "-in", in, "-scheme", "k", "-k", "2", "-query", "q1",
		"-certify", path)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errBuf)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	certs, err := cert.ReadJSONL(f, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(certs) != 2 {
		t.Fatalf("got %d certificates, want 2 (max and min)", len(certs))
	}
	for i, c := range certs {
		if c.Query != "Q1" || c.Scheme != "k" || c.K != 2 {
			t.Errorf("certificate %d labels = %q/%q/%d", i, c.Query, c.Scheme, c.K)
		}
		v, err := cert.Verify(c)
		if err != nil {
			t.Fatalf("certificate %d rejected: %v", i, err)
		}
		if len(v.Skipped) != 0 {
			t.Errorf("certificate %d skipped components: %v", i, v.Skipped)
		}
	}

	// "-" routes the certificates to stdout.
	code, out, errBuf := runQ(t, "-in", in, "-scheme", "k", "-k", "2", "-query", "q1",
		"-certify", "-")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errBuf)
	}
	if !strings.Contains(out, `"schema":"licm-cert/1"`) {
		t.Fatalf("stdout does not carry the certificates:\n%s", out)
	}
}
