package sim

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestServerFIFO(t *testing.T) {
	e := New()
	s := NewServer(e, "cpu", 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		spawn(t, e, func(p *seqProc) {
			p.Acquire(s)
			order = append(order, i)
			p.Wait(1)
			s.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want 0..3", order)
		}
	}
	if e.Now() != 4 {
		t.Fatalf("makespan = %v, want 4", e.Now())
	}
}

func TestServerCapacity(t *testing.T) {
	e := New()
	s := NewServer(e, "cpu", 3)
	maxInUse := 0
	for i := 0; i < 10; i++ {
		spawn(t, e, func(p *seqProc) {
			p.Acquire(s)
			if s.InUse() > maxInUse {
				maxInUse = s.InUse()
			}
			p.Wait(1)
			s.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInUse != 3 {
		t.Fatalf("max in use = %d, want 3", maxInUse)
	}
	// 10 tasks of 1s on 3 slots: ceil(10/3) waves = 4s makespan.
	if e.Now() != 4 {
		t.Fatalf("makespan = %v, want 4", e.Now())
	}
	if s.Acquired() != 10 {
		t.Fatalf("acquired = %d, want 10", s.Acquired())
	}
}

func TestServerTryAcquire(t *testing.T) {
	e := New()
	s := NewServer(e, "gpu", 1)
	got := []bool{}
	spawn(t, e, func(p *seqProc) {
		got = append(got, s.TryAcquire()) // true
		got = append(got, s.TryAcquire()) // false: full
		p.Wait(1)
		s.Release()
		got = append(got, s.TryAcquire()) // true again
		s.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TryAcquire results = %v, want %v", got, want)
		}
	}
}

func TestServerHandoffNoSteal(t *testing.T) {
	// A Release with a waiter queued must hand the slot to the waiter even
	// if another process calls TryAcquire at the same instant afterwards.
	e := New()
	s := NewServer(e, "cpu", 1)
	var winner string
	spawn(t, e, func(p *seqProc) {
		p.Acquire(s)
		p.Wait(1)
		s.Release()
	})
	spawn(t, e, func(p *seqProc) {
		p.Acquire(s)
		if winner == "" {
			winner = "waiter"
		}
		s.Release()
	})
	spawn(t, e, func(p *seqProc) {
		p.Wait(1) // arrives exactly when holder releases
		if s.TryAcquire() {
			if winner == "" {
				winner = "thief"
			}
			s.Release()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if winner != "waiter" {
		t.Fatalf("winner = %q, want waiter", winner)
	}
}

func TestServerUtilization(t *testing.T) {
	e := New()
	s := NewServer(e, "cpu", 2)
	spawn(t, e, func(p *seqProc) {
		p.Acquire(s)
		p.Wait(2)
		s.Release()
	})
	spawn(t, e, func(p *seqProc) { p.Wait(4) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 slot busy for 2s out of 2 slots * 4s = 0.25.
	if got := s.Utilization(); got != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", got)
	}
	if got := s.BusyTime(); got != 2 {
		t.Fatalf("busy time = %v, want 2", got)
	}
}

func TestServerDeadlockDetected(t *testing.T) {
	e := New()
	s := NewServer(e, "cpu", 1)
	spawn(t, e, func(p *seqProc) {
		p.Acquire(s)
		// never released
	})
	spawn(t, e, func(p *seqProc) {
		p.Acquire(s) // parks forever
		t.Error("b acquired a never-released server")
	})
	if err := e.Run(); err == nil {
		t.Fatal("deadlock not detected")
	}
}

func TestServerReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle server did not panic")
		}
	}()
	e := New()
	NewServer(e, "cpu", 1).Release()
}

// TestServerCapacityInvariant is a property test: for random workloads, the
// server never exceeds capacity and every acquirer eventually runs.
func TestServerCapacityInvariant(t *testing.T) {
	f := func(seed uint64, capRaw uint8, nRaw uint8) bool {
		capacity := int(capRaw)%8 + 1
		n := int(nRaw)%64 + 1
		rng := rand.New(rand.NewPCG(seed, 42))
		e := New()
		s := NewServer(e, "cpu", capacity)
		completed := 0
		ok := true
		for i := 0; i < n; i++ {
			hold := rng.Float64() * 2
			start := rng.Float64() * 2
			spawn(t, e, func(p *seqProc) {
				p.Wait(start)
				p.Acquire(s)
				if s.InUse() > capacity {
					ok = false
				}
				p.Wait(hold)
				s.Release()
				completed++
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok && completed == n && s.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
