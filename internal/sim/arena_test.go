package sim

import (
	"math/rand/v2"
	"testing"
)

// TestArenaReuse round-trips an arena across engines and checks the
// second run executes correctly on recycled storage, that stale handles
// from the first run degrade to no-ops, and that steady-state trials stop
// allocating node slabs.
func TestArenaReuse(t *testing.T) {
	var a Arena
	var staleEvents []Event

	runOne := func(n int) {
		e := NewIn(&a)
		rng := rand.New(rand.NewPCG(5, uint64(n)))
		fired := 0
		last := -1.0
		for i := 0; i < n; i++ {
			ev := e.Schedule(rng.Float64()*100, func() {
				if e.Now() < last {
					t.Errorf("out of order: %v after %v", e.Now(), last)
				}
				last = e.Now()
				fired++
			})
			if i%100 == 0 {
				staleEvents = append(staleEvents, ev)
			}
		}
		// Cancel a few through their handles; this-run handles must
		// cancel for real (fired stays below n).
		for _, ev := range staleEvents[:len(staleEvents)/2] {
			ev.Cancel()
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Release(&a)
		staleEvents = staleEvents[:0]
	}

	runOne(2000)
	if len(a.slabs) == 0 {
		t.Fatal("release retained no slabs")
	}
	slabs := len(a.slabs)
	runOne(2000) // same size: must need no new slab chunks
	if len(a.slabs) != slabs {
		t.Fatalf("second run grew slab count %d -> %d despite arena reuse", slabs, len(a.slabs))
	}
	runOne(500)
}

// TestArenaCancelSemantics: a handle cancelled in run 1 must not cancel
// the node's reincarnation in run 2 (generation bump on adoption).
func TestArenaCancelSemantics(t *testing.T) {
	var a Arena
	e1 := NewIn(&a)
	ev := e1.Schedule(1, func() {})
	if err := e1.Run(); err != nil {
		t.Fatal(err)
	}
	e1.Release(&a)

	e2 := NewIn(&a)
	fired := false
	e2.Schedule(1, func() { fired = true })
	ev.Cancel() // stale handle from run 1; must be a no-op
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("stale handle from a released run cancelled a recycled node's new event")
	}
}
