package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"licm/internal/workload"
)

// answer is one query's outcome as the benchmark observed it.
type answer struct {
	spec workload.Spec
	// quality is the supervisor's ladder tag: exact, proven-interval,
	// sampled or failed. It is empty when err is set.
	quality    string
	lb, ub     int64
	infeasible bool
	// err is a transport error, a typed serve error or a build error.
	err     error
	latency time.Duration
}

// failed reports whether the query counts as failed: a transport or
// typed error, or an answer without a proven interval.
func (a *answer) failed() bool {
	return a.err != nil || (a.quality != "exact" && a.quality != "proven-interval")
}

// violations checks a against the spec's ground truth. A proven
// interval must contain the reference range, the sampled range and
// every sampled world's answer; an exact answer must equal an exact
// reference. Failed answers prove nothing and are not checked.
func violations(a *answer, t *truth) []string {
	if a.failed() {
		return nil
	}
	name := a.spec.Name()
	if a.infeasible || t.Source == "infeasible" {
		if a.infeasible != (t.Source == "infeasible") {
			return []string{fmt.Sprintf("%s: answer infeasible=%v, reference %s", name, a.infeasible, t.Source)}
		}
		return nil
	}
	var v []string
	outside := func(what string, lo, hi int64) {
		if lo < a.lb || hi > a.ub {
			v = append(v, fmt.Sprintf("%s: proven [%d, %d] excludes %s [%d, %d]", name, a.lb, a.ub, what, lo, hi))
		}
	}
	outside(t.Source+" ground truth", t.Min, t.Max)
	outside("sampled range", t.McMin, t.McMax)
	for _, w := range t.Worlds {
		outside("sampled world", w, w)
	}
	if a.quality == "exact" && t.Source == "exact" && (a.lb != t.Min || a.ub != t.Max) {
		v = append(v, fmt.Sprintf("%s: exact [%d, %d] differs from exact reference [%d, %d]", name, a.lb, a.ub, t.Min, t.Max))
	}
	return v
}

// qerror is the workload observatory's bound-tightness score: how far
// the proven interval overshoots ground truth on either end, as a
// ratio >= 1, with +1 smoothing so zero-valued answers stay defined.
func qerror(lb, ub, gtMin, gtMax int64) float64 {
	ratio := func(num, den int64) float64 {
		if den < 1 {
			den = 1
		}
		return float64(num) / float64(den)
	}
	return math.Max(1, math.Max(ratio(ub+1, gtMax+1), ratio(gtMin+1, lb+1)))
}

// quality sums up the answers of one timed list.
type quality struct {
	attempted, failed, exact int
	// qerrGmean is the geometric mean q-error over proven feasible
	// answers (1 when there are none).
	qerrGmean float64
}

func score(ans []answer, truths map[int]*truth) quality {
	q := quality{attempted: len(ans)}
	var logSum float64
	proven := 0
	for i := range ans {
		a := &ans[i]
		switch {
		case a.failed():
			q.failed++
			continue
		case a.quality == "exact":
			q.exact++
		}
		if t := truths[a.spec.ID]; !a.infeasible && t.Source != "infeasible" {
			logSum += math.Log(qerror(a.lb, a.ub, t.Min, t.Max))
			proven++
		}
	}
	q.qerrGmean = 1
	if proven > 0 {
		q.qerrGmean = math.Exp(logSum / float64(proven))
	}
	return q
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs, refusing when
// fewer than need samples lie beyond it: with ten, a p95 needs 200
// samples.
func percentile(xs []float64, q float64, need int) (float64, error) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if beyond := len(s) - 1 - i; len(s) == 0 || beyond < need {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", 100*q, len(s), need)
	}
	return s[i], nil
}

// latencies returns the answers' latencies in ms; a failed query
// counts as beyond every latency limit.
func latencies(ans []answer) []float64 {
	out := make([]float64, len(ans))
	for i := range ans {
		if ans[i].failed() {
			out[i] = math.Inf(1)
		} else {
			out[i] = ms(ans[i].latency)
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
