package solver

import "runtime"

// memProbe measures heap consumption across one solve through two
// runtime.ReadMemStats reads: the cumulative allocation counter
// yields Stats.AllocBytes as an end-minus-start delta, and the
// live-heap figure yields Stats.PeakHeap as the larger of the two
// readings (an endpoint sample, not a continuous max). ReadMemStats
// flushes the per-P allocation caches before it counts, so even a
// short solve's small allocations show; runtime/metrics'
// /gc/heap/allocs:bytes counts them only when a cached span is
// flushed and can read 0 across a whole solve. The price is a brief
// stop-the-world per read (tens of microseconds). Both figures are
// process-wide, so concurrent solves (Bounds runs min and max in
// sequence, super may race a sampler) attribute shared allocation to
// every observer; the numbers answer "what did the process pay while
// this solve ran", which is the capacity-planning question. The probe
// only arms when tracing or metrics are on, keeping the disabled path
// at a single bool check.
type memProbe struct {
	on      bool
	allocs0 uint64
	heap0   uint64
}

func startMemProbe(on bool) memProbe {
	if !on {
		return memProbe{}
	}
	a, h := readMemCounters()
	return memProbe{on: true, allocs0: a, heap0: h}
}

// readMemCounters returns the cumulative heap-allocation and live-heap
// byte readings.
func readMemCounters() (allocs, heap uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.HeapAlloc
}

// stop records the deltas into st; a disarmed probe leaves st alone.
func (p memProbe) stop(st *Stats) {
	if !p.on {
		return
	}
	a, h := readMemCounters()
	if a >= p.allocs0 {
		st.AllocBytes = int64(a - p.allocs0)
	}
	peak := p.heap0
	if h > peak {
		peak = h
	}
	if peak <= 1<<62 { // defensive: never store a wrapped reading
		st.PeakHeap = int64(peak)
	}
}
