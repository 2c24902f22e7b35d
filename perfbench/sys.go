package main

import (
	"bytes"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the time the hypervisor ran something else while a CPU
// of this machine had work, summed over CPUs (the steal column of
// /proc/stat, in 1/100 s). On a shared host it is the main source of
// run-to-run noise, so runs report it.
func hostSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// rss is the process's resident set in bytes, from /proc/self/statm.
func rss() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(raw)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// rssPeak polls the resident set and keeps the largest reading of the
// current window. The process-lifetime peak (ru_maxrss) is one extreme
// reading and swings with the GC's timing; the median of per-round
// peaks is steady.
type rssPeak struct {
	peak atomic.Int64
	stop chan struct{}
	done chan struct{}
}

func startRSSPeak(every time.Duration) *rssPeak {
	p := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	p.peak.Store(rss())
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.observe()
			}
		}
	}()
	return p
}

func (p *rssPeak) observe() {
	v := rss()
	for old := p.peak.Load(); v > old && !p.peak.CompareAndSwap(old, v); old = p.peak.Load() {
	}
}

// window returns the peak since the previous call and opens a new
// window at the current reading.
func (p *rssPeak) window() int64 {
	p.observe()
	return p.peak.Swap(rss())
}

// close stops the poller and waits for it to exit.
func (p *rssPeak) close() {
	close(p.stop)
	<-p.done
}

// runtime/metrics names the benchmark reads.
const (
	heapAllocs = "/gc/heap/allocs:bytes"
	gcCycles   = "/gc/cycles/total:gc-cycles"
	gcPauses   = "/sched/pauses/total/gc:seconds"
)

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() int64 {
	s := []metrics.Sample{{Name: heapAllocs}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// gcState is a reading of the garbage collector's cumulative work.
type gcState struct {
	cycles  int64
	pauseNs float64
}

func readGC() gcState {
	s := []metrics.Sample{{Name: gcCycles}, {Name: gcPauses}}
	metrics.Read(s)
	return gcState{
		cycles:  int64(s[0].Value.Uint64()),
		pauseNs: histSum(s[1].Value.Float64Histogram()) * 1e9,
	}
}

func (g gcState) sub(o gcState) gcState {
	return gcState{cycles: g.cycles - o.cycles, pauseNs: g.pauseNs - o.pauseNs}
}

// histSum estimates the total of a runtime/metrics histogram from
// bucket midpoints (an open-ended bucket counts at its finite edge).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var mid float64
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		sum += float64(n) * mid
	}
	return sum
}
