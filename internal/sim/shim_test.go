package sim

import (
	"iter"
	"testing"
)

// seqProc is a test-only sequential driver over an Activity: the test body
// runs as a coroutine (iter.Pull) that yields back to the activity's step
// whenever a primitive parks, and the step resumes it when the wake-up
// fires. Tests read as straight-line processes while exercising exactly the
// engine paths a production step machine takes.
type seqProc struct {
	a      Activity
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
}

// seqStopped unwinds a body left parked when its test ends.
type seqStopped struct{}

// spawnAfter starts fn as a sequential process after delay seconds. The
// test's cleanup tears down a coroutine still parked at the end (a
// deadlocked run).
func spawnAfter(t testing.TB, e *Engine, delay float64, fn func(p *seqProc)) {
	p := &seqProc{}
	var stop func()
	p.resume, stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != any(seqStopped{}) {
				panic(r)
			}
		}()
		p.yield = yield
		fn(p)
	})
	p.a.Init(e, p)
	e.Start(&p.a, delay)
	t.Cleanup(stop)
}

// spawn starts fn as a sequential process at the current instant.
func spawn(t testing.TB, e *Engine, fn func(p *seqProc)) { spawnAfter(t, e, 0, fn) }

// Step resumes the body until it parks again or finishes.
func (p *seqProc) Step() { p.resume() }

// block suspends the body unless the primitive completed inline.
func (p *seqProc) block(done bool) {
	if !done && !p.yield(struct{}{}) {
		panic(seqStopped{})
	}
}

func (p *seqProc) Now() float64                    { return p.a.Now() }
func (p *seqProc) Wait(d float64)                  { p.block(p.a.Wait(d)) }
func (p *seqProc) Acquire(s *Server)               { p.block(s.Acquire(&p.a)) }
func (p *seqProc) Transfer(l *Link, bytes float64) { p.block(l.Transfer(&p.a, bytes)) }
