package sim

// Stepper is an activity's owner: Step runs whenever the activity's
// wake-up fires. It advances the owner's own program counter through as
// many stages as it can without blocking, and returns once a primitive
// reports that the activity parked.
type Stepper interface {
	Step()
}

// Activity is a resumable simulated activity: one engine-owned event node
// that runs its owner's Step when it fires. Init binds the owner as an
// interface holding its pointer, so binding allocates nothing (a method
// value would allocate a closure per activity).
//
// The blocking primitives are non-blocking calls that report whether the
// activity may continue inline:
//
//   - Activity.Wait(d): true when the clock advanced in place (fast path);
//     otherwise the activity's node is scheduled d seconds out.
//   - Server.Acquire(a): true when a slot was free; otherwise the activity
//     queues and the releasing holder's handoff wakes it.
//   - Link.Transfer(a, bytes): true only for a transfer that finished
//     without blocking; otherwise the link wakes the activity when its
//     bytes have drained.
//
// A false return means the wake-up is arranged: the step must return
// without touching the primitive again, and resumes at its next stage when
// the engine calls it. Every wake-up takes exactly the schedule position a
// blocked sequential process would have resumed at, so a step machine and
// the equivalent straight-line process produce the same event order.
//
// An Activity is a plain value with no goroutine, so it costs nothing to
// keep idle: owners embed it in pooled structs and re-Init it on reuse.
type Activity struct {
	ev event // owned node: scheduled on Wait/unpark/Start, fires the owner's Step
}

// Init binds the activity to engine e and its owner s. An idle activity
// (nothing scheduled) may be re-bound, which is how pooled activities move
// between runs.
func (a *Activity) Init(e *Engine, s Stepper) {
	a.ev = event{fire: s, eng: e, index: -1, owned: true}
}

// Start schedules the activity's next step after delay seconds of virtual
// time. The start node takes its schedule position now, so among
// same-instant events it orders exactly where a Wait of the same delay
// issued at this point would.
func (e *Engine) Start(a *Activity, delay float64) {
	e.schedNode(&a.ev, delay)
}

// Now returns the current virtual time.
func (a *Activity) Now() float64 { return a.ev.eng.now }

// Wait advances the activity by d seconds of virtual time. d must be
// non-negative; zero is allowed and yields to other events scheduled at the
// same instant. Wait reports whether the clock moved in place: if so the
// step continues inline, otherwise the activity's node is scheduled and
// the step must return.
func (a *Activity) Wait(d float64) bool {
	e := a.ev.eng
	if e.fastWait(d) {
		return true
	}
	e.schedNode(&a.ev, d)
	return false
}

// fastWait advances the clock by d in place when a wake-up d seconds out
// would fire strictly before every pending event: no other event can run
// during the wait, so scheduling the wake-up only to pop it straight back
// is skipped. The strictness matters: a pending event at exactly the
// resume instant holds a smaller seq and must run first, so ties take the
// scheduled path.
func (e *Engine) fastWait(d float64) bool {
	if d >= 0 && e.ringLive == 0 {
		if t := e.now + d; len(e.heap) == 0 || t < e.heap[0].at {
			e.now = t
			e.stats.FastWaits++
			return true
		}
	}
	return false
}

// unpark schedules the activity's step at the current instant. It is
// called engine-side by whichever primitive the activity was blocked on
// (a Server handoff, a Link completion); the activity has no pending node
// then, so the node is always free here.
func (a *Activity) unpark() {
	a.ev.eng.schedNode(&a.ev, 0)
}
