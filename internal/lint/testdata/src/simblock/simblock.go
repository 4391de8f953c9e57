// Package simblock is the fixture for the simblock rule: step bodies the
// engine's dispatch loop runs inline — the Step of an owner bound with
// Activity.Init, Engine.Schedule callbacks and ServiceLine grant
// callbacks, given directly, as literals, as method values, or through a
// bound-once field — must not block the engine's dispatch thread, and neither may
// anything they call. Identical constructs outside any step body pass
// clean.
package simblock

import (
	"fmt"
	"sync"
	"time"

	"simblockeng"
)

type worker struct {
	act    simblockeng.Activity
	mu     sync.Mutex
	tickFn func() // bound once at setup, scheduled later
	done   chan int
}

// Start wires the fixture's step bodies: an activity owner (its Step
// method), a named function and an inline literal handed to Schedule, a
// bound method traced through the tickFn field, and a grant callback.
func Start(e *simblockeng.Engine, w *worker, gate *simblockeng.ServiceLine) {
	w.act.Init(e, w)
	e.Start(&w.act, 0)
	e.Schedule(1, directBody)
	w.tickFn = w.tick
	e.Schedule(2, w.tickFn)
	e.Schedule(3, func() {
		time.Sleep(time.Millisecond) // want `time.Sleep inside a simulated step body waits on the host clock`
		w.act.Wait(1)
	})
	gate.SetOnGrant(w.grant)
}

// directBody is a step body by virtue of the Schedule call above; its own
// statements and everything it calls are checked.
func directBody() {
	helper()
	go helper() // want `go statement inside a simulated step body spawns a real goroutine`
}

// helper is one hop from a step body: still checked.
func helper() {
	ch := make(chan int, 1)
	ch <- 1  // want `channel send inside a simulated step body`
	<-ch     // want `channel receive inside a simulated step body`
	select { // want `select inside a simulated step body`
	case v := <-ch: // want `channel receive inside a simulated step body`
		_ = v
	default:
	}
}

// Step is the activity's step: a mutex inside it is flagged.
func (w *worker) Step() {
	if !w.act.Wait(2) { // clean: virtual waiting is the approved primitive
		return
	}
	w.mu.Lock() // want `sync Mutex.Lock inside a simulated step body`
	w.mu.Unlock()
}

// tick runs through the tickFn indirection; the rule traces the field
// back to this assignment.
func (w *worker) tick() {
	fmt.Println("tick")     // want `fmt.Println writes to a real stream inside a simulated step body`
	for v := range w.done { // want `ranging over a channel inside a simulated step body`
		_ = v
	}
}

// grant is a ServiceLine grant callback.
func (w *worker) grant() {
	w.done <- 1 // want `channel send inside a simulated step body`
}

// annotatedBody runs as a step only via the doc-comment annotation — the
// hand-off happens through an indirection the call graph cannot see.
//
//wfsimlint:stepbody
func annotatedBody() {
	time.Sleep(time.Second) // want `time.Sleep inside a simulated step body`
	waved()
}

// waved carries a deliberate, line-annotated exception.
func waved() {
	time.Sleep(time.Millisecond) //wfsimlint:allow simblock
}

// Drive is ordinary (non-step) code: the same constructs are fine here —
// this is what keeps the rule reachability-scoped rather than a blanket
// channel ban.
func Drive(e *simblockeng.Engine, w *worker) {
	w.mu.Lock()
	w.mu.Unlock()
	ch := make(chan int, 1)
	ch <- 1
	<-ch
	fmt.Println("driving")
	e.Run()
}
