// Package simblockeng is the engine-substrate fixture for the simblock
// rule: a minimal Engine, Activity and ServiceLine with the shapes whose
// function arguments the dispatch loop later runs as step bodies. Its own
// package is exempt from the rule — the substrate is allowed to touch the
// machinery step bodies must never use.
package simblockeng

// Engine runs step bodies inline on one dispatch thread.
type Engine struct {
	pending []func()
}

// Schedule registers fn to run after delay virtual seconds.
func (e *Engine) Schedule(delay float64, fn func()) {
	_ = delay
	e.pending = append(e.pending, fn)
}

// Start schedules a's owner's Step after delay virtual seconds.
func (e *Engine) Start(a *Activity, delay float64) { e.Schedule(delay, a.owner.Step) }

// Stepper is an activity's owner.
type Stepper interface{ Step() }

// Activity is a resumable simulated activity.
type Activity struct {
	clock float64
	owner Stepper
}

// Init binds the activity's owner, whose Step runs at each wake-up.
func (a *Activity) Init(e *Engine, s Stepper) { a.owner = s }

// Wait advances the activity's virtual clock — the approved way for a step
// body to spend time. It reports whether the step may continue inline.
func (a *Activity) Wait(d float64) bool { a.clock += d; return true }

// ServiceLine is a dispatch gate whose grant callback runs engine-side.
type ServiceLine struct {
	onGrant func()
}

// SetOnGrant installs the grant callback.
func (s *ServiceLine) SetOnGrant(fn func()) { s.onGrant = fn }

// Run drains the pending callbacks; being in the substrate package, the
// machinery here is exempt however it synchronizes.
func (e *Engine) Run() {
	for _, fn := range e.pending {
		fn()
	}
}
