package main

import (
	"bufio"
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"licm/internal/core"
	"licm/internal/encode"
	"licm/internal/mc"
	"licm/internal/seedflag"
	"licm/internal/solver"
	"licm/internal/workload"
)

// truthFiles holds the ground truth of every store's spec pool,
// computed once by --make-truth. Runs only read it, so ground truth
// costs them neither wall time nor resident memory beyond the parse.
//
//go:embed truth/*.jsonl
var truthFiles embed.FS

// worldChecks is the number of sampled worlds per spec whose answers,
// evaluated by the query's own per-world evaluator with no solver
// involved, every proven interval must contain.
const worldChecks = 3

// truth is the reference answer of one pool spec.
type truth struct {
	Spec workload.Spec `json:"spec"`
	// Source is "exact" when a reference solve on a fresh encoding
	// proved both optima ([Min, Max] is then the true answer range),
	// "mc" when it did not ([Min, Max] is the sampled range, a subset
	// of the true one), and "infeasible" when it proved no world.
	Source string `json:"source"`
	Min    int64  `json:"min"`
	Max    int64  `json:"max"`
	// McMin/McMax is the sampled objective range; Worlds the answers
	// of worldChecks sampled worlds.
	McMin  int64   `json:"mc_min"`
	McMax  int64   `json:"mc_max"`
	Worlds []int64 `json:"worlds"`
}

// truthHeader is the first line of a truth file: the parameters the
// entries were computed under, checked against the code on load.
type truthHeader struct {
	Store     string `json:"store"`
	Trans     int    `json:"trans"`
	Items     int    `json:"items"`
	K         int    `json:"k"`
	DataSeed  int64  `json:"data_seed"`
	PoolSeed  int64  `json:"pool_seed"`
	PoolSize  int    `json:"pool_size"`
	MCSamples int    `json:"mc_samples"`
	Specs     int    `json:"specs"`
}

func (st *store) header(specs int) truthHeader {
	return truthHeader{Store: st.name, Trans: st.trans, Items: st.items, K: st.k,
		DataSeed: dataSeed, PoolSeed: poolSeed, PoolSize: st.poolSize,
		MCSamples: st.mcSamples, Specs: specs}
}

// computeTruth derives the reference answer of sp the way the workload
// observatory does: an exact reference solve on a fresh encoding with
// the measured solve's options, the sampled objective range, and
// sampled-world spot checks.
func computeTruth(newEnc func() *encode.Encoded, opts solver.Options, sp workload.Spec, mcSamples int) (truth, error) {
	enc := newEnc()
	obj, eval, err := sp.Build(enc)
	if err != nil {
		return truth{}, fmt.Errorf("%s: %w", sp.Name(), err)
	}
	t := truth{Spec: sp, Source: "mc"}
	res, err := core.Bounds(enc.DB, obj, opts)
	switch {
	case errors.Is(err, solver.ErrInfeasible):
		t.Source = "infeasible"
		return t, nil
	case err == nil && res.MinProven && res.MaxProven:
		t.Source = "exact"
		t.Min, t.Max = res.MinBound, res.MaxBound
	}
	sampler := mc.NewSampler(enc, seedflag.Derive(dataSeed, seedflag.MCStream)+int64(sp.ID))
	est := sampler.EstimateObjective(obj, mcSamples)
	t.McMin, t.McMax = est.Min, est.Max
	if t.Source == "mc" {
		t.Min, t.Max = est.Min, est.Max
	}
	for i := 0; i < worldChecks; i++ {
		t.Worlds = append(t.Worlds, eval(sampler.SampleWorld()))
	}
	return t, nil
}

// makeTruth computes and writes truth/<store>.jsonl under dir for
// every store, using workers goroutines.
func makeTruth(dir string, workers int, log io.Writer) error {
	for _, st := range []*store{mix150, lookup1k} {
		cfg := st.config()
		newEnc, err := cfg.Encoder()
		if err != nil {
			return err
		}
		pool := st.pool()
		out := make([]truth, len(pool))
		errs := make([]error, len(pool))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(pool); i = int(next.Add(1) - 1) {
					out[i], errs[i] = computeTruth(newEnc, cfg.Solver, pool[i], st.mcSamples)
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(st.header(len(pool))); err != nil {
			return err
		}
		exact := 0
		for i := range out {
			if out[i].Source == "exact" {
				exact++
			}
			if err := enc.Encode(&out[i]); err != nil {
				return err
			}
		}
		path := filepath.Join(dir, st.name+".jsonl")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(log, "%s: %d specs, %d with an exact reference\n", path, len(out), exact)
	}
	return nil
}

// loadTruth reads the store's truth file and checks it was computed
// for exactly the pool the code generates today: same parameters,
// same specs in the same order.
func loadTruth(st *store) (map[int]*truth, error) {
	raw, err := truthFiles.ReadFile("truth/" + st.name + ".jsonl")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("truth/%s.jsonl: empty", st.name)
	}
	var h truthHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("truth/%s.jsonl header: %w", st.name, err)
	}
	pool := st.pool()
	if want := st.header(len(pool)); h != want {
		return nil, fmt.Errorf("truth/%s.jsonl was computed for %+v, the code now asks %+v; rerun --make-truth", st.name, h, want)
	}
	byID := make(map[int]*truth, len(pool))
	for i := 0; sc.Scan(); i++ {
		t := &truth{}
		if err := json.Unmarshal(sc.Bytes(), t); err != nil {
			return nil, fmt.Errorf("truth/%s.jsonl line %d: %w", st.name, i+2, err)
		}
		if i >= len(pool) || t.Spec != pool[i] {
			return nil, fmt.Errorf("truth/%s.jsonl line %d: spec %s is not pool spec %d; rerun --make-truth", st.name, i+2, t.Spec.Name(), i)
		}
		byID[t.Spec.ID] = t
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(byID) != len(pool) {
		return nil, fmt.Errorf("truth/%s.jsonl: %d entries for %d pool specs", st.name, len(byID), len(pool))
	}
	return byID, nil
}
