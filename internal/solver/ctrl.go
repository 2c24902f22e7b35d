package solver

import (
	"context"
	"sync/atomic"
	"time"

	"licm/internal/faultinject"
	"licm/internal/obs"
)

// ctrlGranularity is how many branch-and-bound nodes a component
// explores between flushes of its local counters into the shared
// atomics (and polls of the solve's context). It bounds both the
// staleness of live counters and the latency of cancellation.
const ctrlGranularity = 1024

// progressInterval is the node spacing of solver.progress trace
// events.
const progressInterval = 1 << 16

// ctrl is the shared live-instrumentation and cancellation state of
// one solve. Components flush counter deltas into it; it forwards them
// to the metrics registry, emits the periodic progress event, polls
// the context, and carries the context's fault injector to the hook
// sites. A nil *ctrl (instrumentation fully off) costs the hot path a
// single pointer comparison per node.
type ctrl struct {
	ctx    context.Context
	trace  *obs.Tracer
	faults *faultinject.Injector

	nodes        atomic.Int64
	lpSolves     atomic.Int64
	propagations atomic.Int64
	incumbents   atomic.Int64
	lastEmit     atomic.Int64 // node total at the last progress emission
	canceled     atomic.Bool

	cNodes, cLPs, cProps, cInc *obs.Counter
	hLP, hNode                 *obs.Histogram
}

// newCtrl returns the control block for a solve, or nil when nothing
// needs it — no cancellable context, tracer, registry or fault
// injector (the fast path).
func newCtrl(ctx context.Context, opts Options) *ctrl {
	faults := faultinject.From(ctx)
	if ctx.Done() == nil && opts.Trace == nil && opts.Metrics == nil && faults == nil {
		return nil
	}
	k := &ctrl{ctx: ctx, trace: opts.Trace, faults: faults}
	if opts.Metrics != nil {
		k.cNodes = opts.Metrics.Counter("solver.nodes")
		k.cLPs = opts.Metrics.Counter("solver.lp_solves")
		k.cProps = opts.Metrics.Counter("solver.propagations")
		k.cInc = opts.Metrics.Counter("solver.incumbents")
		k.hLP = opts.Metrics.Histogram("solver.lp_ns")
		k.hNode = opts.Metrics.Histogram("solver.node_ns")
	}
	return k
}

// injector returns the solve's fault injector (nil when none).
func (k *ctrl) injector() *faultinject.Injector {
	if k == nil {
		return nil
	}
	return k.faults
}

// timingLatencies reports whether per-LP and per-node-batch latencies
// should be measured (they cost a clock read each, so they are tied to
// an attached metrics registry rather than always on).
func (k *ctrl) timingLatencies() bool {
	return k != nil && k.hLP != nil
}

// observeLP records one LP relaxation's wall-clock duration into the
// solver.lp_ns histogram.
func (k *ctrl) observeLP(d time.Duration) {
	k.hLP.Observe(d.Nanoseconds())
}

// observeNodeBatch records the mean per-node latency of a flushed
// batch of nodes into the solver.node_ns histogram. Batches are
// ctrlGranularity nodes (smaller on the final flush), so one
// observation summarizes up to that many nodes — cheap enough for the
// hot loop while still capturing how node cost shifts between plain
// DFS and LP-bounded search.
func (k *ctrl) observeNodeBatch(elapsed time.Duration, nodes int64) {
	if nodes > 0 {
		k.hNode.Observe(elapsed.Nanoseconds() / nodes)
	}
}

// add flushes counter deltas, polls cancellation, and possibly emits a
// progress event. It returns false when the solve should abort (the
// context ended, now or earlier).
func (k *ctrl) add(nodes, lps, props int64) bool {
	if nodes != 0 {
		k.nodes.Add(nodes)
		k.cNodes.Add(nodes)
	}
	if lps != 0 {
		k.lpSolves.Add(lps)
		k.cLPs.Add(lps)
	}
	if props != 0 {
		k.propagations.Add(props)
		k.cProps.Add(props)
	}
	if k.canceled.Load() {
		return false
	}
	if k.ctx.Err() != nil {
		k.canceled.Store(true)
		k.trace.Event("solver.canceled", obs.I64("nodes", k.nodes.Load()))
		return false
	}
	k.maybeEmit()
	return true
}

// maybeEmit emits a solver.progress trace event when at least
// progressInterval nodes have passed since the previous emission. The
// CAS lets one caller emit per interval.
func (k *ctrl) maybeEmit() {
	total := k.nodes.Load()
	last := k.lastEmit.Load()
	if total-last < progressInterval {
		return
	}
	if !k.lastEmit.CompareAndSwap(last, total) {
		return
	}
	k.trace.Progress("solver.progress",
		obs.I64("nodes", total),
		obs.I64("lp_solves", k.lpSolves.Load()),
		obs.I64("propagations", k.propagations.Load()),
		obs.I64("incumbents", k.incumbents.Load()))
}

// incumbent records an incumbent update (live counter + trace event).
func (k *ctrl) incumbent(value, compNodes int64) {
	k.incumbents.Add(1)
	k.cInc.Inc()
	k.trace.Event("solver.incumbent",
		obs.I64("value", value),
		obs.I64("component_nodes", compNodes))
}

// isCanceled reports whether the solve has been canceled.
func (k *ctrl) isCanceled() bool {
	return k != nil && k.canceled.Load()
}

// forceCancel latches cancellation directly, bypassing the context
// poll — the injected-cancellation path of the fault-injection
// harness.
func (k *ctrl) forceCancel() {
	if k != nil && !k.canceled.Swap(true) {
		k.trace.Event("solver.canceled", obs.I64("nodes", k.nodes.Load()), obs.Bool("injected", true))
	}
}
