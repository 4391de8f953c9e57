package sim

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLinkSingleTransfer(t *testing.T) {
	e := New()
	l := NewLink(e, "disk", 100, 0) // 100 B/s
	var done float64
	spawn(t, e, func(p *seqProc) {
		p.Transfer(l, 500)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(done, 5, 1e-9) {
		t.Fatalf("transfer time = %v, want 5", done)
	}
	if l.BytesMoved() != 500 {
		t.Fatalf("bytes moved = %v, want 500", l.BytesMoved())
	}
	if l.Transfers() != 1 {
		t.Fatalf("transfers = %d, want 1", l.Transfers())
	}
}

func TestLinkLatency(t *testing.T) {
	e := New()
	l := NewLink(e, "gpfs", 100, 0.25)
	var done float64
	spawn(t, e, func(p *seqProc) {
		p.Transfer(l, 100)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(done, 1.25, 1e-9) {
		t.Fatalf("transfer time = %v, want 1.25", done)
	}
}

func TestLinkZeroBytes(t *testing.T) {
	e := New()
	l := NewLink(e, "net", 100, 0.5)
	var done float64
	spawn(t, e, func(p *seqProc) {
		p.Transfer(l, 0)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(done, 0.5, 1e-9) {
		t.Fatalf("zero-byte transfer time = %v, want 0.5 (latency only)", done)
	}
	if l.Transfers() != 1 {
		t.Fatalf("transfers = %d, want 1", l.Transfers())
	}
}

func TestLinkFairShare(t *testing.T) {
	// Two equal simultaneous transfers each see half the bandwidth and
	// complete together at 2x the solo time.
	e := New()
	l := NewLink(e, "disk", 100, 0)
	var t1, t2 float64
	spawn(t, e, func(p *seqProc) {
		p.Transfer(l, 100)
		t1 = p.Now()
	})
	spawn(t, e, func(p *seqProc) {
		p.Transfer(l, 100)
		t2 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(t1, 2, 1e-9) || !almostEqual(t2, 2, 1e-9) {
		t.Fatalf("completion times = %v, %v; want 2, 2", t1, t2)
	}
}

func TestLinkUnevenShare(t *testing.T) {
	// A 100B and a 300B transfer start together on a 100 B/s link.
	// Phase 1: both at 50 B/s. Small one finishes at t=2 (300-100=200 left
	// on the big one). Phase 2: big one alone at 100 B/s, finishes at t=4.
	e := New()
	l := NewLink(e, "disk", 100, 0)
	var small, big float64
	spawn(t, e, func(p *seqProc) {
		p.Transfer(l, 100)
		small = p.Now()
	})
	spawn(t, e, func(p *seqProc) {
		p.Transfer(l, 300)
		big = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(small, 2, 1e-6) {
		t.Fatalf("small completion = %v, want 2", small)
	}
	if !almostEqual(big, 4, 1e-6) {
		t.Fatalf("big completion = %v, want 4", big)
	}
}

func TestLinkLateJoiner(t *testing.T) {
	// A 200B transfer starts at t=0 alone (100 B/s). At t=1 a 50B transfer
	// joins: both at 50 B/s. Joiner finishes at t=2; first has 100-50=50
	// left, alone again at 100 B/s, finishes at t=2.5.
	e := New()
	l := NewLink(e, "disk", 100, 0)
	var first, joiner float64
	spawn(t, e, func(p *seqProc) {
		p.Transfer(l, 200)
		first = p.Now()
	})
	spawn(t, e, func(p *seqProc) {
		p.Wait(1)
		p.Transfer(l, 50)
		joiner = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(joiner, 2, 1e-6) {
		t.Fatalf("joiner completion = %v, want 2", joiner)
	}
	if !almostEqual(first, 2.5, 1e-6) {
		t.Fatalf("first completion = %v, want 2.5", first)
	}
}

func TestLinkBusyTime(t *testing.T) {
	e := New()
	l := NewLink(e, "disk", 100, 0)
	spawn(t, e, func(p *seqProc) {
		p.Transfer(l, 100) // busy [0,1]
		p.Wait(1)          // idle [1,2]
		p.Transfer(l, 200) // busy [2,4]
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(l.BusyTime(), 3, 1e-6) {
		t.Fatalf("busy time = %v, want 3", l.BusyTime())
	}
}

func TestLinkInvalidConstruction(t *testing.T) {
	for _, tc := range []struct{ bw, lat float64 }{
		{0, 0}, {-1, 0}, {math.Inf(1), 0}, {math.NaN(), 0}, {1, -1}, {1, math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(bw=%v, lat=%v) did not panic", tc.bw, tc.lat)
				}
			}()
			NewLink(New(), "bad", tc.bw, tc.lat)
		}()
	}
}

// TestLinkConservation is a property test: for random concurrent transfers,
// (a) all bytes are delivered, (b) the makespan is at least
// totalBytes/bandwidth (the link cannot exceed its capacity), and (c) each
// individual transfer takes at least bytes/bandwidth.
func TestLinkConservation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%20 + 1
		rng := rand.New(rand.NewPCG(seed, 7))
		e := New()
		bw := 50 + rng.Float64()*1000
		l := NewLink(e, "link", bw, 0)
		total := 0.0
		lastArrival := 0.0
		ok := true
		for i := 0; i < n; i++ {
			bytes := 1 + rng.Float64()*10000
			start := rng.Float64() * 5
			total += bytes
			if start > lastArrival {
				lastArrival = start
			}
			spawn(t, e, func(p *seqProc) {
				p.Wait(start)
				t0 := p.Now()
				p.Transfer(l, bytes)
				if p.Now()-t0 < bytes/bw-1e-6 {
					ok = false // faster than line rate: impossible
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if !almostEqual(l.BytesMoved(), total, 1e-3*total) {
			return false
		}
		// All arrivals happen by lastArrival; afterwards the link drains at
		// full rate, so makespan >= total/bw is only guaranteed from t=0 if
		// arrivals are at 0. Weaker but always-true bound:
		if e.Now() < total/bw-1e-6 {
			return false
		}
		return ok && l.Active() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
