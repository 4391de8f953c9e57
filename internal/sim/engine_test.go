package sim

import (
	"math"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(2.0, func() { got = append(got, 3) })
	e.Schedule(1.0, func() { got = append(got, 1) })
	e.Schedule(1.0, func() { got = append(got, 2) }) // same instant: FIFO
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 2.0 {
		t.Fatalf("Now() = %v, want 2.0", e.Now())
	}
}

func TestScheduleZeroDelayDuringRun(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(1.0, func() {
		order = append(order, "a")
		e.Schedule(0, func() { order = append(order, "b") })
	})
	e.Schedule(1.0, func() { order = append(order, "c") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Zero-delay events scheduled at t are dispatched after events already
	// queued for t (they get a later sequence number).
	want := "acb"
	var s string
	for _, x := range order {
		s += x
	}
	if s != want {
		t.Fatalf("order = %q, want %q", s, want)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(1.0, func() { fired = true })
	e.Schedule(0.5, func() { ev.Cancel() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestScheduleInvalidDelayPanics(t *testing.T) {
	for _, d := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Schedule(%v) did not panic", d)
				}
			}()
			New().Schedule(d, func() {})
		}()
	}
}

func TestRunTwice(t *testing.T) {
	e := New()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("second Run did not error")
	}
}

func TestProcWait(t *testing.T) {
	e := New()
	var stamps []float64
	spawn(t, e, func(p *seqProc) {
		stamps = append(stamps, p.Now())
		p.Wait(1.5)
		stamps = append(stamps, p.Now())
		p.Wait(0)
		stamps = append(stamps, p.Now())
		p.Wait(2.5)
		stamps = append(stamps, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 1.5, 4.0}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps = %v, want %v", stamps, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New()
	var order []string
	spawn(t, e, func(p *seqProc) {
		order = append(order, "a0")
		p.Wait(2)
		order = append(order, "a2")
	})
	spawn(t, e, func(p *seqProc) {
		order = append(order, "b0")
		p.Wait(1)
		order = append(order, "b1")
		p.Wait(2)
		order = append(order, "b3")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNestedGo(t *testing.T) {
	e := New()
	done := 0
	spawn(t, e, func(p *seqProc) {
		p.Wait(1)
		spawn(t, e, func(q *seqProc) {
			q.Wait(1)
			if q.Now() != 2 {
				t.Errorf("inner Now = %v, want 2", q.Now())
			}
			done++
		})
		p.Wait(5)
		done++
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := New()
		var stamps []float64
		srv := NewServer(e, "cpu", 2)
		link := NewLink(e, "net", 100, 0.001)
		for i := 0; i < 8; i++ {
			spawn(t, e, func(p *seqProc) {
				p.Acquire(srv)
				p.Transfer(link, 250)
				p.Wait(0.5)
				srv.Release()
				stamps = append(stamps, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return stamps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
