package explain

import (
	"sort"

	"licm/internal/obs"
)

// Census accumulates component fingerprints across a workload of
// explain reports and answers how often the same component (an equal
// recorded matrix and objective) recurs across queries, and how much
// solve time a cache shared by the queries could save (the solver
// already searches a repeat within one solve only once, see
// solver.ExplainComp.Reused). It tracks distinct-vs-total counts, a
// recurrence histogram, cumulative per-fingerprint cost, and can
// simulate an LRU cache of any capacity over the observed access
// sequence.
type Census struct {
	reg          *obs.Registry
	queries      int
	runs         int
	total        int64
	totalSolveNs int64
	byFP         map[string]*FPStat
	// seq is the fingerprint access sequence in observation order —
	// what an actual cache would see — kept for LRU simulation.
	seq []string
}

// FPStat aggregates every occurrence of one fingerprint.
type FPStat struct {
	Fingerprint string `json:"fingerprint"`
	Count       int64  `json:"count"`
	// Vars/Cons describe the component shape (identical for every
	// occurrence, since the fingerprint names the exact matrix).
	Vars     int   `json:"vars"`
	Cons     int   `json:"cons"`
	Nodes    int64 `json:"nodes"`
	LPSolves int64 `json:"lp_solves"`
	SolveNs  int64 `json:"solve_ns"`
	LPNs     int64 `json:"lp_ns"`
}

// NewCensus returns an empty census.
func NewCensus() *Census {
	return &Census{byFP: make(map[string]*FPStat)}
}

// SetMetrics wires the census to a metrics registry: Observe then
// bumps the explain.components counter (licm_explain_components_total)
// and the explain.distinct_fingerprints gauge
// (licm_explain_distinct_fingerprints). Nil unwires.
func (c *Census) SetMetrics(reg *obs.Registry) { c.reg = reg }

// Observe folds one report into the census.
func (c *Census) Observe(rep *Report) {
	if rep == nil {
		return
	}
	c.queries++
	var added int64
	for ri := range rep.Runs {
		run := &rep.Runs[ri]
		c.runs++
		for ci := range run.Components {
			comp := &run.Components[ci]
			fp := comp.Fingerprint
			st := c.byFP[fp]
			if st == nil {
				st = &FPStat{Fingerprint: fp, Vars: comp.Vars, Cons: comp.Cons}
				c.byFP[fp] = st
			}
			st.Count++
			st.Nodes += comp.Nodes
			st.LPSolves += comp.LPSolves
			st.SolveNs += comp.SolveNs
			st.LPNs += comp.LPNs
			c.total++
			added++
			c.totalSolveNs += comp.SolveNs
			c.seq = append(c.seq, fp)
		}
	}
	if c.reg != nil {
		c.reg.Counter("explain.components").Add(added)
		c.reg.Gauge("explain.distinct_fingerprints").Set(int64(len(c.byFP)))
	}
}

// RecurrenceBucket counts how many distinct fingerprints were seen
// exactly Times times.
type RecurrenceBucket struct {
	Times        int64 `json:"times"`
	Fingerprints int   `json:"fingerprints"`
}

// Summary is the census rollup.
type Summary struct {
	Queries    int   `json:"queries"`
	Runs       int   `json:"runs"`
	Components int64 `json:"components"`
	Distinct   int   `json:"distinct"`
	// HitRate is the simulated hit rate of an unbounded component
	// cache: (components - distinct) / components. Every occurrence
	// after a fingerprint's first would be served from cache.
	HitRate      float64            `json:"hit_rate"`
	TotalSolveNs int64              `json:"total_solve_ns"`
	Recurrence   []RecurrenceBucket `json:"recurrence"`
	// Top holds the costliest fingerprints by cumulative solve time,
	// descending — where a cache (or a per-shape optimization) pays.
	Top []FPStat `json:"top"`
}

// Summarize builds the rollup, keeping the topK costliest
// fingerprints (topK <= 0 keeps all).
func (c *Census) Summarize(topK int) Summary {
	s := Summary{
		Queries:      c.queries,
		Runs:         c.runs,
		Components:   c.total,
		Distinct:     len(c.byFP),
		TotalSolveNs: c.totalSolveNs,
	}
	if c.total > 0 {
		s.HitRate = float64(c.total-int64(len(c.byFP))) / float64(c.total)
	}
	counts := make(map[int64]int)
	for _, st := range c.byFP {
		counts[st.Count]++
		s.Top = append(s.Top, *st)
	}
	for times, n := range counts {
		s.Recurrence = append(s.Recurrence, RecurrenceBucket{Times: times, Fingerprints: n})
	}
	sort.Slice(s.Recurrence, func(i, j int) bool { return s.Recurrence[i].Times < s.Recurrence[j].Times })
	sort.Slice(s.Top, func(i, j int) bool {
		if s.Top[i].SolveNs != s.Top[j].SolveNs {
			return s.Top[i].SolveNs > s.Top[j].SolveNs
		}
		return s.Top[i].Fingerprint < s.Top[j].Fingerprint
	})
	if topK > 0 && len(s.Top) > topK {
		s.Top = s.Top[:topK]
	}
	return s
}

// SimulateLRU replays the observed fingerprint sequence against an
// LRU cache of the given capacity (entries, not bytes) and returns
// the hit count and rate. Capacity <= 0 means unbounded, which
// reduces to the (components - distinct) figure.
func (c *Census) SimulateLRU(capacity int) (hits int64, rate float64) {
	if len(c.seq) == 0 {
		return 0, 0
	}
	if capacity <= 0 {
		hits = c.total - int64(len(c.byFP))
		return hits, float64(hits) / float64(c.total)
	}
	// Doubly-linked LRU over a map; small capacities dominate usage.
	type node struct {
		fp         string
		prev, next *node
	}
	var head, tail *node
	idx := make(map[string]*node, capacity)
	unlink := func(n *node) {
		if n.prev != nil {
			n.prev.next = n.next
		} else {
			head = n.next
		}
		if n.next != nil {
			n.next.prev = n.prev
		} else {
			tail = n.prev
		}
		n.prev, n.next = nil, nil
	}
	pushFront := func(n *node) {
		n.next = head
		if head != nil {
			head.prev = n
		}
		head = n
		if tail == nil {
			tail = n
		}
	}
	for _, fp := range c.seq {
		if n, ok := idx[fp]; ok {
			hits++
			unlink(n)
			pushFront(n)
			continue
		}
		if len(idx) >= capacity {
			ev := tail
			unlink(ev)
			delete(idx, ev.fp)
		}
		n := &node{fp: fp}
		idx[fp] = n
		pushFront(n)
	}
	return hits, float64(hits) / float64(len(c.seq))
}
