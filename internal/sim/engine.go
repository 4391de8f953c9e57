package sim

import (
	"fmt"
	"math"
)

// event is the engine-internal scheduled-callback node. Nodes are pooled:
// when a pool-owned node fires it is recycled for the next Schedule, so
// steady-state event traffic allocates nothing. Nodes owned by an Activity
// or a Link (owned == true) are never returned to the pool — their owner
// reuses them directly across schedule cycles.
type event struct {
	at  float64
	seq uint64 // tie-breaker: FIFO among events at the same instant

	fire Stepper // what runs at dispatch: an Activity's owner, or a callback

	eng      *Engine
	index    int    // heap index, -1 while off-heap
	gen      uint64 // bumped each time a pooled node is recycled
	owned    bool   // Activity-/Link-owned: reused by the owner, never pooled
	canceled bool
}

// callback adapts a plain Schedule callback to Stepper. A func value is
// pointer-shaped, so the conversion allocates nothing.
type callback func()

// Step runs the callback.
func (f callback) Step() { f() }

// Event is a handle to a scheduled callback, returned by Engine.Schedule.
// It is a small value (copyable) carrying a generation stamp, so a handle
// that outlives its event — the underlying storage may have been recycled
// for a later Schedule — degrades safely: Cancel becomes a no-op and
// Canceled reports false rather than corrupting an unrelated event.
type Event struct {
	n   *event
	gen uint64
}

// Cancel removes the event from the schedule so it never fires. Cancelling
// an already-fired, already-cancelled or zero Event is a no-op.
func (ev Event) Cancel() {
	n := ev.n
	if n == nil || n.gen != ev.gen || n.index == -1 || n.canceled {
		return
	}
	n.canceled = true
	if n.index == ringIndex {
		// The ring entry goes stale (index no longer matches) and is
		// reaped lazily at pop.
		n.index = -1
		n.eng.ringLive--
	} else {
		n.eng.heap.remove(n.index)
	}
	// The node is intentionally NOT pooled: it keeps its generation and
	// canceled flag forever, so Canceled() on this handle stays accurate.
}

// Canceled reports whether Cancel was called on the event.
func (ev Event) Canceled() bool {
	return ev.n != nil && ev.n.gen == ev.gen && ev.n.canceled
}

// Scheduled reports whether the event is still pending (not yet fired and
// not cancelled).
func (ev Event) Scheduled() bool {
	return ev.n != nil && ev.n.gen == ev.gen && ev.n.index != -1
}

// At returns the virtual time at which the event is scheduled to fire. It
// is meaningful only while the event is pending (see Scheduled).
func (ev Event) At() float64 {
	if ev.n == nil || ev.n.gen != ev.gen {
		return math.NaN()
	}
	return ev.n.at
}

// heapEntry is one scheduled event with its ordering key inlined: sift
// comparisons read (at, seq) straight from the heap's backing array instead
// of dereferencing two event pointers per comparison — the event-heap is
// the hottest data structure in the simulator and the pointer chases were
// its dominant cost.
type heapEntry struct {
	at  float64
	seq uint64
	n   *event
}

// eventHeap is a 4-ary min-heap ordered by (at, seq), implemented directly
// on the concrete element type: no container/heap interface dispatch, and
// sift operations move elements with single assignments instead of swaps.
// The shallower 4-ary shape trades a few extra comparisons per level for
// half the levels and better cache behaviour on the hot push/pop path.
type eventHeap []heapEntry

// before reports whether a fires strictly before b.
func before(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h eventHeap) up(i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !before(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].n.index = i
		i = parent
	}
	h[i] = e
	e.n.index = i
}

// down sifts h[i] toward the leaves; it reports whether the element moved.
func (h eventHeap) down(i int) bool {
	e := h[i]
	start := i
	sz := len(h)
	for {
		first := i<<2 + 1
		if first >= sz {
			break
		}
		min := first
		last := first + 4
		if last > sz {
			last = sz
		}
		for c := first + 1; c < last; c++ {
			if before(h[c], h[min]) {
				min = c
			}
		}
		if !before(h[min], e) {
			break
		}
		h[i] = h[min]
		h[i].n.index = i
		i = min
	}
	h[i] = e
	e.n.index = i
	return i != start
}

func (h *eventHeap) push(n *event) {
	// Capacity is bounded by the peak pending population and retained
	// across runs through the Arena, so steady state never grows it.
	*h = append(*h, heapEntry{at: n.at, seq: n.seq, n: n}) //wfsimlint:allow hotalloc
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() *event {
	old := *h
	root := old[0].n
	last := len(old) - 1
	e := old[last]
	old[last] = heapEntry{}
	*h = old[:last]
	if last > 0 {
		(*h)[0] = e
		(*h).down(0)
	}
	root.index = -1
	return root
}

// fix repairs the heap after the element at index i changed its key,
// refreshing the inlined key from the event first.
func (h eventHeap) fix(i int) {
	h[i].at, h[i].seq = h[i].n.at, h[i].n.seq
	if !h.down(i) {
		h.up(i)
	}
}

// remove deletes the element at index i.
func (h *eventHeap) remove(i int) {
	old := *h
	last := len(old) - 1
	removed := old[i].n
	if i != last {
		old[i] = old[last]
		old[i].n.index = i
	}
	old[last] = heapEntry{}
	*h = old[:last]
	if i < last {
		if !old[:last].down(i) {
			old[:last].up(i)
		}
	}
	removed.index = -1
}

// ringIndex is the event.index sentinel for nodes parked on the engine's
// zero-delay ring rather than the heap. Off-heap stays exactly -1: every
// "is this node pending" check in the package tests index != -1, never
// index < 0, so ring residency reads as scheduled.
const ringIndex = -2

// ringEntry is one zero-delay ring slot. The seq snapshot detects stale
// entries: cancelling or rescheduling the node changes n.index or n.seq,
// and the mismatched entry is skipped at pop instead of being searched for
// and removed eagerly.
type ringEntry struct {
	seq uint64
	n   *event
}

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; construct with New.
//
// # Handoff protocol
//
// Everything runs on the goroutine that calls Run. The dispatch loop pops
// the earliest event, advances the clock and calls the event's callback.
// A simulated activity (see Activity) is just an owned node that runs its
// owner's Step: a wake-up is a schedule of that node, and resuming the
// activity is one interface call — no goroutine, no coroutine switch,
// no channel. Blocking primitives (Activity.Wait, Server.Acquire,
// Link.Transfer) either complete in place or arrange the activity's
// wake-up and tell the step to return. The event order is fixed by the
// (time, seq) keys alone, so the simulation is deterministic regardless of
// GOMAXPROCS.
type Engine struct {
	now float64
	seq uint64

	// heap holds every pending event that is not on the ring.
	heap eventHeap

	// ring is the zero-delay FIFO: events scheduled at exactly the current
	// instant bypass the heap — ~35% of all events in the workflow runs
	// (every activity wake-up is a zero-delay schedule), each saving an
	// O(log n) sift pair. Seq order equals append order because seq
	// assignment is globally monotonic, so a plain FIFO preserves the
	// (at, seq) pop contract; pop still compares against the heap root,
	// which wins a same-instant tie on a smaller seq.
	ring     []ringEntry
	ringHead int
	ringLive int // non-stale ring entries (for Pending)

	free     []*event  // recycled pool-owned event nodes
	nodeSlab []event   // current node slab; chunks never move once handed out
	slabs    [][]event // every chunk ever carved, for arena recycling

	err error // sticky corrupt-simulation error discovered during dispatch

	// parked counts activities queued on a Server: blocked with no pending
	// event of their own, woken only by another holder's Release. Any left
	// when the queue drains are deadlocked.
	parked int

	stats Stats

	ran bool
}

// Stats counts what an engine did. The counters are plain integers bumped
// on the dispatch path; they cost no allocation and change no event order,
// which makes them an equivalence proof for substrate rewrites: two
// implementations that dispatch the same events report the same Stats.
type Stats struct {
	// Dispatched is the number of events popped and run: callbacks and
	// activity steps alike.
	Dispatched int
	// FastWaits counts Waits (including latency-only link transfers) that
	// advanced the clock in place instead of scheduling a wake-up.
	FastWaits int
	// RingHits counts dispatched events taken from the zero-delay ring
	// rather than the heap.
	RingHits int
	// PeakPending is the largest number of pending events at any push.
	PeakPending int
}

// Stats returns the engine's counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// New returns an empty engine with the clock at 0.
func New() *Engine { return &Engine{} }

// pushNode enqueues n: onto the zero-delay ring when it fires at the
// current instant, onto the heap otherwise.
func (e *Engine) pushNode(n *event) {
	if n.at == e.now {
		n.index = ringIndex
		e.ring = append(e.ring, ringEntry{seq: n.seq, n: n})
		e.ringLive++
	} else {
		e.heap.push(n)
	}
	if p := len(e.heap) + e.ringLive; p > e.stats.PeakPending {
		e.stats.PeakPending = p
	}
}

// popNode removes and returns the earliest pending event across the heap
// and the zero-delay ring, or nil when both are empty. Every non-stale ring
// entry fires at the current instant (the clock cannot advance past an
// undrained minimum), so the heap wins only when its root shares the
// instant with a smaller sequence number — the one case where events
// scheduled earlier at this timestamp must fire before a ring entry.
func (e *Engine) popNode() *event {
	for e.ringHead < len(e.ring) {
		ent := &e.ring[e.ringHead]
		if ent.n.index == ringIndex && ent.n.seq == ent.seq {
			break
		}
		ent.n = nil // cancelled or rescheduled away: reap
		e.ringHead++
	}
	if e.ringHead == len(e.ring) {
		if e.ringHead > 0 {
			e.ring = e.ring[:0]
			e.ringHead = 0
		}
		if len(e.heap) == 0 {
			return nil
		}
		return e.heap.pop()
	}
	ent := &e.ring[e.ringHead]
	if h := e.heap; len(h) > 0 && h[0].at == ent.n.at && h[0].seq < ent.seq {
		return e.heap.pop()
	}
	n := ent.n
	ent.n = nil
	e.ringHead++
	e.ringLive--
	e.stats.RingHits++
	n.index = -1
	return n
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// checkDelay panics on the delays the simulated cluster never produces —
// a negative or NaN delay indicates a cost-model bug that must not be
// silently clamped.
func (e *Engine) checkDelay(delay float64) {
	if delay < 0 || math.IsNaN(delay) {
		// Fatal invariant violation: formats once, then the run dies.
		//wfsimlint:allow hotalloc
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, e.now))
	}
}

// getNode returns a pool-owned node ready for scheduling. Fresh nodes are
// carved from fixed-capacity slab chunks (a chunk is abandoned, not grown,
// when full — its nodes stay alive through the free list and the heap), so
// the pool warming up costs one allocation per chunk rather than one per
// node.
func (e *Engine) getNode() *event {
	if k := len(e.free); k > 0 {
		n := e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
		return n
	}
	if len(e.nodeSlab) == cap(e.nodeSlab) {
		e.nodeSlab = make([]event, 0, 256)
		e.slabs = append(e.slabs, e.nodeSlab[:256])
	}
	e.nodeSlab = e.nodeSlab[:len(e.nodeSlab)+1]
	n := &e.nodeSlab[len(e.nodeSlab)-1]
	n.eng = e
	n.index = -1
	return n
}

// putNode recycles a fired pool-owned node. Bumping the generation
// invalidates every outstanding handle to the node's previous use.
func (e *Engine) putNode(n *event) {
	n.gen++
	n.fire = nil
	n.canceled = false
	e.free = append(e.free, n)
}

// schedNode pushes an off-heap node with a fresh sequence number. It is the
// single entry point for owned nodes (Activity wake-ups, Link completion
// and join events), so its seq assignment order — not node identity — is what fixes
// the deterministic event order.
func (e *Engine) schedNode(n *event, delay float64) {
	e.checkDelay(delay)
	if n.index != -1 {
		// Fatal invariant violation: formats once, then the run dies.
		//wfsimlint:allow hotalloc
		panic(fmt.Sprintf("sim: event already scheduled at t=%v", n.at))
	}
	n.at = e.now + delay
	e.seq++
	n.seq = e.seq
	n.canceled = false
	e.pushNode(n)
}

// fixNode reschedules a node in place: if it is on the heap its position is
// repaired with fix (no pop/re-push, no dead entry left behind); otherwise
// it is pushed. Either way it receives a fresh sequence number, exactly as
// if it had been cancelled and re-scheduled — so event ordering is
// identical to the cancel-and-repush protocol it replaces.
func (e *Engine) fixNode(n *event, delay float64) {
	e.checkDelay(delay)
	n.at = e.now + delay
	e.seq++
	n.seq = e.seq
	switch {
	case n.index >= 0:
		e.heap.fix(n.index)
	case n.index == ringIndex:
		// The old ring entry went stale the moment seq changed. Re-ring
		// when still at the current instant; otherwise move to the heap.
		if n.at == e.now {
			e.ring = append(e.ring, ringEntry{seq: n.seq, n: n})
		} else {
			n.index = -1
			e.ringLive--
			e.pushNode(n)
		}
	default:
		n.canceled = false
		e.pushNode(n)
	}
}

// Schedule registers fn to run after delay seconds of virtual time and
// returns a handle so it can be cancelled or rescheduled. A negative or NaN
// delay panics.
func (e *Engine) Schedule(delay float64, fn func()) Event {
	n := e.getNode()
	n.fire = callback(fn)
	e.schedNode(n, delay)
	return Event{n: n, gen: n.gen}
}

// Reschedule moves a still-pending event to fire after delay seconds from
// the current instant, updating its position in the schedule in place
// (fix on the live heap index) instead of cancelling and re-adding it. The
// event receives a fresh sequence number, so it orders among same-instant
// events exactly as a newly scheduled one. Rescheduling an event that
// already fired or was cancelled panics: it no longer exists, so the caller
// holds a stale handle and must Schedule anew.
func (e *Engine) Reschedule(ev Event, delay float64) {
	n := ev.n
	if n == nil || n.gen != ev.gen || n.index == -1 {
		// Fatal invariant violation: formats once, then the run dies.
		//wfsimlint:allow hotalloc
		panic(fmt.Sprintf("sim: Reschedule of completed event at t=%v", e.now))
	}
	e.fixNode(n, delay)
}

// dispatch is the event loop: it pops events, advances the clock and runs
// each event's callback inline — a plain callback or an activity's step.
// It returns when the queue is exhausted or the simulation is corrupt (see
// e.err).
func (e *Engine) dispatch() {
	for {
		n := e.popNode()
		if n == nil {
			return
		}
		if n.at < e.now {
			// Fatal invariant violation: formats once, then the run dies.
			e.err = fmt.Errorf("sim: time went backwards: %v < %v", n.at, e.now) //wfsimlint:allow hotalloc
			return
		}
		e.now = n.at
		e.stats.Dispatched++
		fire := n.fire
		if !n.owned {
			e.putNode(n)
		}
		fire.Step()
	}
}

// Run executes events until the queue drains. It returns an error if the
// queue drains while activities are still queued on a Server (a deadlock:
// some activity waits for a slot that will never be released). Run may
// only be called once per engine.
func (e *Engine) Run() error {
	if e.ran {
		return fmt.Errorf("sim: Run called twice") //wfsimlint:allow hotalloc
	}
	e.ran = true
	e.dispatch()
	if e.err != nil {
		return e.err
	}
	if e.parked > 0 {
		// Terminal diagnosis after the queue drained: never steady-state.
		//wfsimlint:allow hotalloc
		return fmt.Errorf("sim: deadlock: %d activities queued with no pending events at t=%v",
			e.parked, e.now)
	}
	return nil
}

// Pending returns the number of live scheduled events. Cancelled events
// never count: the heap removes them immediately, and the ring decrements
// its live count at Cancel even though the stale entry is reaped lazily.
func (e *Engine) Pending() int { return len(e.heap) + e.ringLive }
