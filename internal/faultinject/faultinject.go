// Package faultinject provides deterministic fault-injection hook
// points for the solver's hot paths. Production code compiles the
// hooks in permanently; a solve without an Injector pays one nil check
// per hook, so they are safe to leave in release builds (the same
// trade the ctrl nil-check makes for instrumentation).
//
// Tests attach a Plan to a solve's context with With: the plan names a
// site, a 0-based hit index, and an action, and fires exactly once, at
// the chosen hit. Hit counters belong to the Injector, so a fixed-seed
// single-worker solve replays the same injection point on every run —
// the property the chaos sweep in internal/super relies on to cover
// every ctrl batch boundary — and concurrent solves never see each
// other's plans.
package faultinject

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Site identifies a hook point compiled into the solver.
type Site uint8

// The hook sites. CtrlBatch fires at every ctrl counter flush (about
// every ctrlGranularity branch-and-bound nodes — the solver's batch
// boundary and cancellation poll point). LPPivot fires at every
// simplex pivot.
const (
	CtrlBatch Site = iota
	LPPivot
	numSites
)

// String names the site for error messages and trace events.
func (s Site) String() string {
	switch s {
	case CtrlBatch:
		return "ctrl-batch"
	case LPPivot:
		return "lp-pivot"
	default:
		return fmt.Sprintf("Site(%d)", uint8(s))
	}
}

// Action is what a hook site does when its plan fires.
type Action uint8

const (
	// None leaves the site untouched (also the counting-only mode: a
	// plan with Action None measures hit counts without injecting).
	None Action = iota
	// Panic makes the site panic with an *Injected value.
	Panic
	// Cancel latches the solve's cooperative cancellation, as if its
	// context had been canceled. Honored at CtrlBatch only (the simplex
	// layer has no cancellation channel); at LPPivot it is a no-op.
	Cancel
	// JitterNaN poisons the site's numeric state with a NaN. Honored at
	// LPPivot (corrupting the pivot element, which spreads through the
	// tableau and surfaces as a NaN/garbage LP objective); at CtrlBatch
	// it is a no-op.
	JitterNaN
	// JitterInf poisons the site's numeric state with +Inf, the
	// overflow twin of JitterNaN. Honored at LPPivot only.
	JitterInf
)

// String names the action.
func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Cancel:
		return "cancel"
	case JitterNaN:
		return "jitter-nan"
	case JitterInf:
		return "jitter-inf"
	default:
		return fmt.Sprintf("Action(%d)", uint8(a))
	}
}

// Plan is one injection: at the Hit-th (0-based) hit of Site, perform
// Action.
type Plan struct {
	Site   Site
	Hit    int64
	Action Action
}

// Injected is the value thrown by a site honoring a Panic action.
// Recovery boundaries can detect injected panics by type.
type Injected struct {
	Site Site
	Hit  int64
}

// Error describes the injection; *Injected satisfies error so
// recovered panics can be wrapped uniformly.
func (p *Injected) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %s hit %d", p.Site, p.Hit)
}

// Injector is one solve's plan together with its own hit counters. A
// nil *Injector is valid and never injects.
type Injector struct {
	plan Plan
	hits [numSites]atomic.Int64
}

// ctxKey keys the Injector in a context.
type ctxKey struct{}

// With returns a child of ctx carrying a fresh Injector for p. Every
// solve run under the returned context (both directions of a Bounds
// call, and a supervisor's retries) shares that Injector's counters,
// so the plan fires at most once across all of them.
func With(ctx context.Context, p Plan) context.Context {
	return context.WithValue(ctx, ctxKey{}, &Injector{plan: p})
}

// From returns the Injector carried by ctx, or nil when there is none.
func From(ctx context.Context) *Injector {
	in, _ := ctx.Value(ctxKey{}).(*Injector)
	return in
}

// Hits reports how many times site has been reached under this
// Injector. Attach a Plan with Action None to measure a workload's hit
// counts before sweeping injections across them.
func (in *Injector) Hits(s Site) int64 {
	if in == nil {
		return 0
	}
	return in.hits[s].Load()
}

// Check records a hit at site s and returns the action the site must
// perform: None in the overwhelmingly common case, and always on a nil
// Injector. A Panic action does not return — Check panics with an
// *Injected naming the site and hit.
func (in *Injector) Check(s Site) Action {
	if in == nil {
		return None
	}
	n := in.hits[s].Add(1) - 1
	if in.plan.Site != s || in.plan.Hit != n {
		return None
	}
	if in.plan.Action == Panic {
		panic(&Injected{Site: s, Hit: n})
	}
	return in.plan.Action
}
