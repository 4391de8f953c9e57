package sim

import (
	"math"
	"testing"
)

// TestPendingExcludesCancelled pins the Pending contract: cancelled events
// leave the schedule immediately, so they are never counted.
func TestPendingExcludesCancelled(t *testing.T) {
	e := New()
	a := e.Schedule(1.0, func() {})
	e.Schedule(2.0, func() {})
	e.Schedule(3.0, func() {})
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending() = %d, want 3", got)
	}
	a.Cancel()
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending() after Cancel = %d, want 2", got)
	}
	// Cancelling mid-run must drop the count the same way.
	var midRun int
	b := e.Schedule(2.5, func() {})
	e.Schedule(2.0, func() {
		b.Cancel()
		midRun = e.Pending()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// At the t=2.0 callback: the 2.0 event itself already popped, b is
	// cancelled, only the 3.0 event remains.
	if midRun != 1 {
		t.Fatalf("Pending() mid-run after Cancel = %d, want 1", midRun)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() after Run = %d, want 0", e.Pending())
	}
}

func TestRescheduleEarlier(t *testing.T) {
	e := New()
	var order []string
	ev := e.Schedule(5.0, func() { order = append(order, "moved") })
	e.Schedule(2.0, func() { order = append(order, "fixed") })
	e.Schedule(1.0, func() { e.Reschedule(ev, 0.5) }) // 5.0 -> 1.5
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "moved" || order[1] != "fixed" {
		t.Fatalf("order = %v, want [moved fixed]", order)
	}
	if e.Now() != 2.0 {
		t.Fatalf("Now() = %v, want 2.0", e.Now())
	}
}

func TestRescheduleLater(t *testing.T) {
	e := New()
	var order []string
	ev := e.Schedule(1.5, func() { order = append(order, "moved") })
	e.Schedule(2.0, func() { order = append(order, "fixed") })
	e.Schedule(1.0, func() { e.Reschedule(ev, 4.0) }) // 1.5 -> 5.0
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "fixed" || order[1] != "moved" {
		t.Fatalf("order = %v, want [fixed moved]", order)
	}
	if e.Now() != 5.0 {
		t.Fatalf("Now() = %v, want 5.0", e.Now())
	}
}

// TestRescheduleFreshSeq pins the determinism contract: a rescheduled event
// gets a fresh sequence number, so among same-instant events it fires after
// those already queued — exactly as if it had been cancelled and
// re-scheduled.
func TestRescheduleFreshSeq(t *testing.T) {
	e := New()
	var order []string
	ev := e.Schedule(1.0, func() { order = append(order, "moved") })
	e.Schedule(2.0, func() { order = append(order, "fixed") })
	e.Schedule(0.5, func() { e.Reschedule(ev, 1.5) }) // 1.0 -> 2.0, same instant as "fixed"
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "fixed" || order[1] != "moved" {
		t.Fatalf("order = %v, want [fixed moved]", order)
	}
}

func TestRescheduleAt(t *testing.T) {
	e := New()
	ev := e.Schedule(5.0, func() {})
	if ev.At() != 5.0 {
		t.Fatalf("At() = %v, want 5.0", ev.At())
	}
	e.Reschedule(ev, 2.5)
	if ev.At() != 2.5 {
		t.Fatalf("At() after Reschedule = %v, want 2.5", ev.At())
	}
	if !ev.Scheduled() {
		t.Fatal("Scheduled() = false for pending event")
	}
	ev.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRescheduleCompletedPanics(t *testing.T) {
	// Rescheduling a fired event panics.
	e := New()
	ev := e.Schedule(1.0, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reschedule of fired event did not panic")
			}
		}()
		e.Reschedule(ev, 1.0)
	}()
	// Rescheduling a cancelled event panics too.
	e2 := New()
	ev2 := e2.Schedule(1.0, func() {})
	ev2.Cancel()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reschedule of cancelled event did not panic")
			}
		}()
		e2.Reschedule(ev2, 1.0)
	}()
}

// TestStaleHandleAfterRecycle pins the generation-stamp safety property:
// once an event fires its node may be recycled for a later Schedule, and the
// old handle must become inert rather than acting on the new event.
func TestStaleHandleAfterRecycle(t *testing.T) {
	e := New()
	var stale Event
	fired := false
	stale = e.Schedule(1.0, func() {})
	e.Schedule(2.0, func() {
		// stale's node is free by now; this Schedule recycles it.
		e.Schedule(1.0, func() { fired = true })
		stale.Cancel() // must NOT cancel the recycled event
		if stale.Canceled() {
			t.Error("stale handle reports Canceled")
		}
		if stale.Scheduled() {
			t.Error("stale handle reports Scheduled")
		}
		if !math.IsNaN(stale.At()) {
			t.Errorf("stale At() = %v, want NaN", stale.At())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("recycled event was cancelled through a stale handle")
	}
}

// TestServerQueueWraparound forces the FIFO ring's head index to wrap by
// cycling far more waiters through the queue than its initial capacity, and
// checks strict arrival-order grants throughout.
func TestServerQueueWraparound(t *testing.T) {
	e := New()
	srv := NewServer(e, "cpu", 1)
	const n = 64
	var grants []int
	for i := 0; i < n; i++ {
		i := i
		spawn(t, e, func(p *seqProc) {
			p.Wait(float64(i) * 1e-3) // staggered arrivals: deterministic queue order
			p.Acquire(srv)
			grants = append(grants, i)
			p.Wait(1) // hold long enough that everyone queues
			srv.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(grants) != n {
		t.Fatalf("grants = %d, want %d", len(grants), n)
	}
	for i, g := range grants {
		if g != i {
			t.Fatalf("grant order %v: position %d got waiter %d", grants, i, g)
		}
	}
	if srv.QueueLen() != 0 || srv.InUse() != 0 {
		t.Fatalf("queue = %d, inUse = %d after Run, want 0, 0", srv.QueueLen(), srv.InUse())
	}
	if srv.Acquired() != n {
		t.Fatalf("Acquired() = %d, want %d", srv.Acquired(), n)
	}
}

// TestLinkLatencyOnlyBusyTime pins the occupancy fix: a zero-byte transfer
// pays only latency, but that latency is real link occupancy and must show
// up in BusyTime.
func TestLinkLatencyOnlyBusyTime(t *testing.T) {
	e := New()
	l := NewLink(e, "gpfs", 100, 0.5)
	spawn(t, e, func(p *seqProc) {
		p.Transfer(l, 0) // latency-only: busy [0, 0.5]
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(l.BusyTime(), 0.5, 1e-9) {
		t.Fatalf("busy time = %v, want 0.5 (latency-only transfer occupies the link)", l.BusyTime())
	}
	if l.Transfers() != 1 {
		t.Fatalf("transfers = %d, want 1", l.Transfers())
	}
}

// TestLinkOverlappingLatencyBusyTime checks that concurrent latency waits
// are counted as one occupancy interval, not summed per waiter.
func TestLinkOverlappingLatencyBusyTime(t *testing.T) {
	e := New()
	l := NewLink(e, "gpfs", 100, 0.5)
	for i := 0; i < 3; i++ {
		spawn(t, e, func(p *seqProc) {
			p.Transfer(l, 0)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(l.BusyTime(), 0.5, 1e-9) {
		t.Fatalf("busy time = %v, want 0.5 (overlapping waits count once)", l.BusyTime())
	}
}

// TestLinkLatencyThenFlowBusyTime covers the combined case: latency interval
// followed by the flow interval, with a gap in between from another process.
func TestLinkLatencyThenFlowBusyTime(t *testing.T) {
	e := New()
	l := NewLink(e, "disk", 100, 0.25)
	spawn(t, e, func(p *seqProc) {
		p.Transfer(l, 100) // latency [0,0.25] + flow [0.25,1.25]
		p.Wait(1)          // idle [1.25,2.25]
		p.Transfer(l, 0)   // latency [2.25,2.5]
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(l.BusyTime(), 1.5, 1e-9) {
		t.Fatalf("busy time = %v, want 1.5", l.BusyTime())
	}
}

// TestPoolChurnDeterminism runs a workload with heavy event/flow/proc
// pooling twice and demands identical timestamps — pooling must be
// invisible to the simulation.
func TestPoolChurnDeterminism(t *testing.T) {
	run := func() []float64 {
		e := New()
		var stamps []float64
		srv := NewServer(e, "cpu", 3)
		link := NewLink(e, "net", 1000, 0.001)
		for w := 0; w < 4; w++ {
			spawn(t, e, func(p *seqProc) {
				for i := 0; i < 10; i++ {
					p.Acquire(srv)
					p.Transfer(link, 100*float64(i+1))
					p.Wait(0.01)
					srv.Release()
					stamps = append(stamps, p.Now())
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stamp %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestZeroDelayRingOrder pins the zero-delay ring's ordering contract
// against the heap: events at the same instant fire in seq (schedule)
// order regardless of which structure holds them. The critical case is a
// heap event sharing its instant with earlier-pushed ring entries — the
// heap root's smaller seq must win the tie.
func TestZeroDelayRingOrder(t *testing.T) {
	e := New()
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }

	e.Schedule(5, func() {
		got = append(got, "H1")
		// Scheduled at t=5 while H2 (also at 5, smaller seq) is still
		// pending on the heap: H2 must fire before these ring entries.
		e.Schedule(0, log("X"))
		e.Schedule(0, log("Y"))
	})
	e.Schedule(5, log("H2"))
	e.Schedule(0, log("A")) // ring at t=0
	e.Schedule(0, log("B"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"A", "B", "H1", "H2", "X", "Y"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestZeroDelayRingCancelReschedule pins handle semantics for
// ring-resident events: Cancel suppresses the fire and corrects Pending,
// Reschedule moves the event out of (or back into) the ring with a fresh
// seq, and the stale ring entries left behind are skipped silently.
func TestZeroDelayRingCancelReschedule(t *testing.T) {
	e := New()
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }

	z := e.Schedule(0, log("Z"))
	if !z.Scheduled() {
		t.Fatal("ring event reports not scheduled")
	}
	if p := e.Pending(); p != 1 {
		t.Fatalf("Pending = %d, want 1", p)
	}
	z.Cancel()
	if z.Scheduled() || !z.Canceled() {
		t.Fatal("cancelled ring event still reports scheduled")
	}
	if p := e.Pending(); p != 0 {
		t.Fatalf("Pending after Cancel = %d, want 0", p)
	}

	// R starts on the ring at t=0, is rescheduled to t=2 (ring → heap),
	// and must fire after the t=1 heap event despite its earlier seq.
	r := e.Schedule(0, log("R"))
	e.Schedule(1, log("M"))
	e.Reschedule(r, 2)
	if !r.Scheduled() {
		t.Fatal("rescheduled ring event reports not scheduled")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"M", "R"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestZeroDelayRingRescheduleToNow covers the ring-to-ring reschedule: a
// ring-resident event rescheduled with delay 0 stays at the current
// instant but takes a fresh seq, so it fires after zero-delay events
// scheduled in between.
func TestZeroDelayRingRescheduleToNow(t *testing.T) {
	e := New()
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }

	r := e.Schedule(0, log("R"))
	e.Schedule(0, log("A"))
	e.Reschedule(r, 0) // R's seq now follows A's
	e.Schedule(0, log("B"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"A", "R", "B"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("fired %v, want %v", got, want)
	}
}
