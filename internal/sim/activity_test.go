package sim

import (
	"strings"
	"testing"
)

// stepper is a minimal hand-written step machine: each wake-up runs the
// next stage function, which reports whether the activity may continue
// inline.
type stepper struct {
	a      Activity
	stages []func(a *Activity) bool
	next   int
}

func newStepper(e *Engine, delay float64, stages ...func(a *Activity) bool) *stepper {
	s := &stepper{stages: stages}
	s.a.Init(e, s)
	e.Start(&s.a, delay)
	return s
}

func (s *stepper) Step() {
	for s.next < len(s.stages) {
		st := s.stages[s.next]
		s.next++
		if !st(&s.a) {
			return
		}
	}
}

// TestActivityWaitFastPath pins when Wait advances the clock in place: only
// when its wake-up would fire strictly before every pending event. A tie
// must schedule, because the pending event holds the smaller seq.
func TestActivityWaitFastPath(t *testing.T) {
	e := New()
	var inline []bool
	newStepper(e, 0,
		func(a *Activity) bool { ok := a.Wait(1); inline = append(inline, ok); return ok }, // nothing pending
		func(a *Activity) bool { ok := a.Wait(1); inline = append(inline, ok); return ok }, // tie with the t=2 event
		func(a *Activity) bool { ok := a.Wait(1); inline = append(inline, ok); return ok }, // nothing pending again
	)
	e.Schedule(2, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	if len(inline) != len(want) {
		t.Fatalf("inline = %v, want %v", inline, want)
	}
	for i := range want {
		if inline[i] != want[i] {
			t.Fatalf("inline = %v, want %v", inline, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
	// Start, the t=2 event and the tied wake-up were dispatched; the two
	// fast waits were not.
	if st := e.Stats(); st.Dispatched != 3 || st.FastWaits != 2 {
		t.Fatalf("stats = %+v, want 3 dispatched, 2 fast waits", st)
	}
}

// TestActivityDeadlockQueuedOnServer: the queue drains while an activity
// is still queued on a Server, so nothing can ever wake it — Run reports a
// deadlock. A second run that releases the slot finishes cleanly.
func TestActivityDeadlockQueuedOnServer(t *testing.T) {
	for _, release := range []bool{false, true} {
		e := New()
		srv := NewServer(e, "gpu", 1)
		acquired := 0
		acquire := func(a *Activity) bool { return srv.Acquire(a) }
		held := func(*Activity) bool { acquired++; return true }
		holder := newStepper(e, 0, acquire, held, func(a *Activity) bool { return a.Wait(1) })
		if release {
			holder.stages = append(holder.stages, func(*Activity) bool { srv.Release(); return true })
		}
		newStepper(e, 0.5, acquire, held)
		err := e.Run()
		if !release {
			if err == nil || !strings.Contains(err.Error(), "deadlock") ||
				!strings.Contains(err.Error(), "1 activities") {
				t.Fatalf("Run() = %v, want a deadlock naming 1 queued activity", err)
			}
			if srv.QueueLen() != 1 || acquired != 1 {
				t.Fatalf("queue = %d, acquired = %d; want 1, 1", srv.QueueLen(), acquired)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Run() with release = %v", err)
		}
		if acquired != 2 {
			t.Fatalf("acquired = %d, want 2 (handoff to the queued activity)", acquired)
		}
	}
}

// TestLinkZeroByteFastPath: a latency-only transfer with nothing pending
// advances the clock in place and reports that the step may continue — the
// same instant a sequential wait would have finished at, with no event.
func TestLinkZeroByteFastPath(t *testing.T) {
	e := New()
	l := NewLink(e, "gpfs", 100, 0.5)
	var inline bool
	var done float64
	newStepper(e, 0, func(a *Activity) bool {
		inline = l.Transfer(a, 0)
		done = a.Now()
		return inline
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !inline || done != 0.5 {
		t.Fatalf("Transfer inline = %v finishing at %v; want inline at 0.5", inline, done)
	}
	if l.Transfers() != 1 || !almostEqual(l.BusyTime(), 0.5, 1e-12) {
		t.Fatalf("transfers = %d, busy = %v; want 1, 0.5", l.Transfers(), l.BusyTime())
	}
	if st := e.Stats(); st.Dispatched != 1 || st.FastWaits != 1 {
		t.Fatalf("stats = %+v, want only the start dispatched and 1 fast wait", st)
	}
}

// TestLinkZeroByteSlowPath: with an event pending at the finish instant the
// latency-only transfer must park. The activity resumes at the finish
// instant, after the event scheduled before the transfer began and before
// one scheduled after it — exactly where a sequential Wait(latency) issued
// at the transfer's start would have resumed — with the transfer already
// counted and the link vacated.
func TestLinkZeroByteSlowPath(t *testing.T) {
	e := New()
	l := NewLink(e, "gpfs", 100, 0.5)
	var order []string
	e.Schedule(0.5, func() { order = append(order, "before") })
	var inline bool
	newStepper(e, 0,
		func(a *Activity) bool {
			inline = l.Transfer(a, 0)
			e.Schedule(0.5, func() { order = append(order, "after") })
			return inline
		},
		func(a *Activity) bool {
			order = append(order, "resumed")
			if a.Now() != 0.5 {
				t.Errorf("resumed at %v, want 0.5", a.Now())
			}
			if l.Transfers() != 1 || !almostEqual(l.BusyTime(), 0.5, 1e-12) {
				t.Errorf("at resume: transfers = %d, busy = %v; want 1, 0.5", l.Transfers(), l.BusyTime())
			}
			return true
		},
	)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if inline {
		t.Fatal("latency-only transfer tied with a pending event reported inline completion")
	}
	want := []string{"before", "resumed", "after"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if st := e.Stats(); st.FastWaits != 0 || st.Dispatched != 4 {
		t.Fatalf("stats = %+v, want 4 dispatched (start, before, transfer, after), no fast waits", st)
	}
}
