package sim

// Arena holds a finished engine's recyclable substrate storage — event-node
// slabs and the heap's and the ring's backing arrays — so a sweep running
// thousands of trials warms these allocations once per worker instead of
// once per trial.
//
// Lifetime rules (see DESIGN.md §12): an Arena may be used by one run at a
// time (runner gives each worker its own); Engine.Release may only be
// called after Run has returned, when no events are pending; and adopted
// node slabs get a generation bump, so Event handles from a released run
// degrade into no-ops exactly like handles to recycled pool nodes within
// a run. Activities are not arena state: they live in their owners'
// structs, which recycle them (see runtime.Arena).
type Arena struct {
	slabs [][]event
	free  []*event
	heap  eventHeap
	ring  []ringEntry
}

// NewIn returns an engine whose substrate storage is adopted from the
// arena (New semantics when a is nil or empty). Every adopted node is
// re-stamped: generation bumped, re-pointed at the new engine, and filed
// on the free list.
func NewIn(a *Arena) *Engine {
	e := New()
	if a == nil {
		return e
	}
	e.slabs, a.slabs = a.slabs, nil
	e.free, a.free = a.free[:0], nil
	for _, slab := range e.slabs {
		for i := range slab {
			n := &slab[i]
			n.gen++
			n.eng = e
			n.index = -1
			n.fire = nil
			n.owned = false
			n.canceled = false
			e.free = append(e.free, n)
		}
	}
	e.heap, a.heap = a.heap, nil
	e.ring, a.ring = a.ring, nil
	return e
}

// Release donates the engine's substrate storage to the arena for the
// next NewIn. It must only be called once the engine is finished (Run
// returned): the schedule is empty, so every slab node is idle.
func (e *Engine) Release(a *Arena) {
	a.slabs = append(a.slabs, e.slabs...)
	e.slabs, e.nodeSlab = nil, nil
	a.free, e.free = e.free[:0], nil
	a.heap, e.heap = e.heap[:0], nil
	a.ring, e.ring = e.ring[:0], nil
	e.ringHead, e.ringLive = 0, 0
}
