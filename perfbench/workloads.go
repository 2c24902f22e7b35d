package main

import (
	"fmt"
	"math/rand"
	"sort"

	"licm/internal/seedflag"
	"licm/internal/solver"
	"licm/internal/workload"
)

// defaultSeed is the workload seed when --seed is absent. heldOutSeed
// is reserved for re-checking a performance claim on a selection that
// was not used while the change was written.
const (
	defaultSeed = 7
	heldOutSeed = 9001
)

// store is one anonymized possibilistic database plus the candidate
// pool of query specs drawn against it. The pool is fixed (generated
// from poolSeed), so its ground truth can be computed once and kept in
// truth/<name>.jsonl; a run's --seed selects which pool specs it asks.
type store struct {
	name  string
	trans int
	items int
	k     int
	// poolSize specs are drawn by workload.GenerateSpecs; only those
	// whose shape some workload on this store asks are kept.
	poolSize int
	shapes   []string
	// mcSamples sizes the sampled ground-truth range of each pool spec.
	mcSamples int
}

// dataSeed fixes the dataset of every store: the store behind the
// committed BENCH_workload.json (licmload -seed 7).
const dataSeed = 7

// poolSeed is the GenerateSpecs stream of every pool: the workload
// stream of the data seed, so the pool opens with licmload's
// -queries list.
var poolSeed = seedflag.Derive(dataSeed, seedflag.WorkloadStream)

var (
	mix150 = &store{name: "mix-150", trans: 150, items: 40, k: 4, poolSize: 1000,
		shapes: []string{"q1/count", "q1/sum", "q2/count", "q3/count"}, mcSamples: 100}
	lookup1k = &store{name: "lookup-1k", trans: 1000, items: 200, k: 4, poolSize: 1400,
		shapes: []string{"q1/count", "q1/sum", "q2/count"}, mcSamples: 100}
)

// quota is a per-shape spec count. Fixed counts keep the shape mix of
// a run independent of the seed, so seeds differ only in which specs
// of each shape they ask.
type quota map[string]int

// bench is one benchmark workload.
type bench struct {
	name  string
	store *store
	// timed is the measured spec list, warm the disjoint warm-up list.
	timed, warm quota
	// served answers through serve.Server over loopback HTTP with this
	// many clients and workers; 0 answers in process with one caller.
	served int
	// setupPerGap is the number of set-up samples taken before each
	// round of the timed list.
	setupPerGap int
}

// rounds splits the timed list; set-up samples sit between rounds so
// they spread across the run instead of bunching at the start.
const rounds = 10

var benches = []*bench{
	// Every workload asks 400 specs, about 30 s of answers on 2 vCPUs.
	// With 200, which specs a seed picks moved mix-150's
	// latency_p50_ms by up to 20%, and lookup-1k's latency_p95_ms (then
	// the 190th of 200 answers) spread 0.31 over ten runs.
	{name: "mix-150", store: mix150,
		timed:       quota{"q1/count": 120, "q1/sum": 80, "q2/count": 100, "q3/count": 100},
		warm:        quota{"q1/count": 2, "q1/sum": 2, "q2/count": 2, "q3/count": 2},
		setupPerGap: 20},
	{name: "lookup-1k", store: lookup1k,
		timed:       quota{"q1/count": 160, "q1/sum": 106, "q2/count": 134},
		warm:        quota{"q1/count": 4, "q1/sum": 3, "q2/count": 3},
		setupPerGap: 3},
	{name: "serve-1k", store: lookup1k, served: 2,
		timed:       quota{"q1/count": 160, "q1/sum": 106, "q2/count": 134},
		warm:        quota{"q1/count": 4, "q1/sum": 3, "q2/count": 3},
		setupPerGap: 2},
}

func findBench(name string) (*bench, error) {
	var names []string
	for _, b := range benches {
		if b.name == name {
			return b, nil
		}
		names = append(names, b.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// shape is the spec's kind/agg pair, the unit of the quotas.
func shape(sp workload.Spec) string { return sp.Kind + "/" + sp.Agg }

// pool returns the store's candidate specs in generation order.
func (st *store) pool() []workload.Spec {
	keep := map[string]bool{}
	for _, s := range st.shapes {
		keep[s] = true
	}
	var out []workload.Spec
	for _, sp := range workload.GenerateSpecs(st.poolSize, poolSeed, 1000, 40) {
		if keep[shape(sp)] {
			out = append(out, sp)
		}
	}
	return out
}

// config is the store as the program sees it: the options licmd and
// licmload solve with (DefaultOptions, a 300 000 node budget, no
// witness completion) and no deadline, so every answer depends only on
// its inputs.
func (st *store) config() workload.Config {
	opts := solver.DefaultOptions()
	opts.MaxNodes = 300_000
	opts.CompleteWitness = false
	return workload.Config{
		NumTransactions: st.trans,
		NumItems:        st.items,
		Scheme:          "k",
		K:               st.k,
		Seed:            dataSeed,
		MCSamples:       30,
		Solver:          opts,
	}.Normalized()
}

// selectSpecs draws the warm-up and timed lists from pool, in a seeded
// random order, meeting both quotas exactly with distinct specs.
func selectSpecs(pool []workload.Spec, seed int64, warm, timed quota) (w, t []workload.Spec, err error) {
	need := map[string]int{}
	for s, n := range warm {
		need[s] += n
	}
	for s, n := range timed {
		need[s] += n
	}
	r := rand.New(rand.NewSource(seed))
	gotW, gotT := map[string]int{}, map[string]int{}
	for _, i := range r.Perm(len(pool)) {
		sp := pool[i]
		s := shape(sp)
		switch {
		case gotW[s] < warm[s]:
			gotW[s]++
			w = append(w, sp)
		case gotT[s] < timed[s]:
			gotT[s]++
			t = append(t, sp)
		}
	}
	var short []string
	for s, n := range need {
		if gotW[s]+gotT[s] < n {
			short = append(short, fmt.Sprintf("%s: %d of %d", s, gotW[s]+gotT[s], n))
		}
	}
	if len(short) > 0 {
		sort.Strings(short)
		return nil, nil, fmt.Errorf("spec pool too small: %v", short)
	}
	return w, t, nil
}
