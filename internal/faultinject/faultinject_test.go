package faultinject

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// check calls in.Check, converting an injected panic into the Panic
// action so sequences of hits can be asserted uniformly.
func check(in *Injector, s Site) (a Action) {
	defer func() {
		if r := recover(); r != nil {
			inj, ok := r.(*Injected)
			if !ok || inj.Site != s {
				panic(r)
			}
			a = Panic
		}
	}()
	return in.Check(s)
}

func TestUnarmedIsNoop(t *testing.T) {
	in := From(context.Background())
	if in != nil {
		t.Fatal("From(Background) returned an injector")
	}
	if a := in.Check(CtrlBatch); a != None {
		t.Fatalf("nil Check = %v, want None", a)
	}
	if h := in.Hits(CtrlBatch); h != 0 {
		t.Fatalf("nil Hits = %d, want 0", h)
	}
}

func TestFiresExactlyOnceAtChosenHit(t *testing.T) {
	in := From(With(context.Background(), Plan{Site: CtrlBatch, Hit: 2, Action: Panic}))
	got := make([]Action, 0, 5)
	for i := 0; i < 5; i++ {
		got = append(got, check(in, CtrlBatch))
	}
	want := []Action{None, None, Panic, None, None}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: action %v, want %v", i, got[i], want[i])
		}
	}
	if h := in.Hits(CtrlBatch); h != 5 {
		t.Fatalf("Hits = %d, want 5", h)
	}
}

func TestInjectedPanicNamesHit(t *testing.T) {
	in := From(With(context.Background(), Plan{Site: LPPivot, Hit: 1, Action: Panic}))
	in.Check(LPPivot)
	defer func() {
		inj, ok := recover().(*Injected)
		if !ok || inj.Site != LPPivot || inj.Hit != 1 {
			t.Fatalf("recovered %v, want *Injected at lp-pivot hit 1", inj)
		}
	}()
	in.Check(LPPivot)
	t.Fatal("hit 1 did not panic")
}

func TestSitesCountIndependently(t *testing.T) {
	in := From(With(context.Background(), Plan{Site: LPPivot, Hit: 0, Action: JitterNaN}))
	if a := in.Check(CtrlBatch); a != None {
		t.Fatalf("CtrlBatch fired a plan for LPPivot: %v", a)
	}
	if a := in.Check(LPPivot); a != JitterNaN {
		t.Fatalf("LPPivot hit 0 = %v, want JitterNaN", a)
	}
	if in.Hits(CtrlBatch) != 1 || in.Hits(LPPivot) != 1 {
		t.Fatalf("hits = %d/%d, want 1/1", in.Hits(CtrlBatch), in.Hits(LPPivot))
	}
}

// TestCountingModeAndRearmResets: a None plan only counts, every With
// call starts its own counters, and a plan never leaks into another
// context's injector — the isolation that lets faulted solves run
// concurrently.
func TestCountingModeAndRearmResets(t *testing.T) {
	ctx := context.Background()
	counting := From(With(ctx, Plan{Site: CtrlBatch, Hit: -1, Action: None}))
	for i := 0; i < 7; i++ {
		if a := counting.Check(CtrlBatch); a != None {
			t.Fatalf("counting mode injected %v", a)
		}
	}
	if counting.Hits(CtrlBatch) != 7 {
		t.Fatalf("Hits = %d, want 7", counting.Hits(CtrlBatch))
	}
	fresh := From(With(ctx, Plan{Site: CtrlBatch, Hit: 0, Action: Cancel}))
	if fresh.Hits(CtrlBatch) != 0 {
		t.Fatalf("new injector inherited hits: %d", fresh.Hits(CtrlBatch))
	}
	if a := fresh.Check(CtrlBatch); a != Cancel {
		t.Fatalf("hit 0 of the new injector = %v, want Cancel", a)
	}
	if counting.Hits(CtrlBatch) != 7 {
		t.Fatalf("the new injector's hit moved the old one's counter to %d", counting.Hits(CtrlBatch))
	}
}

func TestInjectedIsError(t *testing.T) {
	var err error = &Injected{Site: LPPivot, Hit: 3}
	var inj *Injected
	if !errors.As(err, &inj) || inj.Site != LPPivot || inj.Hit != 3 {
		t.Fatalf("errors.As failed on %v", err)
	}
}

// TestConcurrentChecks exercises the lock-free hook path under the
// race detector: concurrent Check calls against one injector must be
// safe and fire the action exactly once.
func TestConcurrentChecks(t *testing.T) {
	in := From(With(context.Background(), Plan{Site: CtrlBatch, Hit: 500, Action: Panic}))
	var fired atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				if check(in, CtrlBatch) == Panic {
					fired.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := fired.Load(); n != 1 {
		t.Fatalf("plan fired %d times, want exactly once", n)
	}
	if in.Hits(CtrlBatch) != 2000 {
		t.Fatalf("Hits = %d, want 2000", in.Hits(CtrlBatch))
	}
}
