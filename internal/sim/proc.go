package sim

import (
	"iter"
	"sync"
)

// Proc is a simulated process: a sequential function executing in virtual
// time. Procs are created with Engine.Go and may block on Wait,
// Server.Acquire and Link.Transfer. All Proc methods must be called from the
// process's own goroutine.
//
// Procs are coroutines over the engine's dispatch loop: suspending and
// resuming a process is a direct goroutine switch (iter.Pull's coroutine
// machinery), not a channel rendezvous through the Go scheduler. Procs are
// pooled by the engine: when a process function returns, the Proc parks in
// the engine's free list and the next Engine.Go reuses it — its coroutine,
// its pre-bound resume event node, and its warmed-up goroutine stack — so
// spawning a process in steady state allocates nothing and pays no
// goroutine-creation cost.
type Proc struct {
	eng  *Engine
	name string
	fn   func(*Proc)
	ev   event // pre-bound resume/start node, reused across park cycles

	// Coroutine plumbing, bound once per Proc: resume transfers control
	// into the process (from the dispatch loop only), yield transfers it
	// back out, stop tears the coroutine down.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	pooled bool // suspended at its reuse point (in freeProcs), not mid-task
}

// procStopped is the unwind sentinel thrown through a suspended process
// when the engine tears its coroutine down mid-task (deadlocked processes
// at the end of Run). It is recovered at the coroutine's top level.
type procStopped struct{}

// procPool recycles idle process coroutines across engines: spinning up a
// coroutine costs several allocations (iter.Pull's internal state), so an
// engine finishing its run donates its pooled Procs here and the next
// engine adopts them instead of creating fresh ones. Pooled coroutines sit
// suspended at their reuse point; the pool is capped so at most
// procPoolCap idle goroutines exist process-wide, and overflow coroutines
// are stopped outright. The mutex both serializes concurrent engines and
// publishes the donated Proc's state to its adopter.
var procPool struct {
	mu   sync.Mutex
	free []*Proc
}

const procPoolCap = 1024

// adoptProc transfers a pooled coroutine from the global pool to engine e,
// or returns nil when the pool is empty.
func adoptProc(e *Engine) *Proc {
	procPool.mu.Lock()
	var p *Proc
	if k := len(procPool.free); k > 0 {
		p = procPool.free[k-1]
		procPool.free[k-1] = nil
		procPool.free = procPool.free[:k-1]
	}
	procPool.mu.Unlock()
	if p != nil {
		p.eng = e
		p.ev.eng = e
		e.allProcs = append(e.allProcs, p)
	}
	return p
}

// donateProcs moves an exiting engine's idle Procs into the global pool,
// stopping any overflow beyond the pool cap.
func donateProcs(procs []*Proc) {
	procPool.mu.Lock()
	room := procPoolCap - len(procPool.free)
	if room > len(procs) {
		room = len(procs)
	}
	for _, p := range procs[:room] {
		p.eng = nil
		p.ev.eng = nil
		procPool.free = append(procPool.free, p)
	}
	procPool.mu.Unlock()
	for _, p := range procs[room:] {
		p.stop()
	}
}

// Go starts fn as a simulated process at the current virtual time. The name
// is used in diagnostics only. Go may be called both from outside Run (to
// seed the simulation) and from a running process or event callback.
func (e *Engine) Go(name string, fn func(p *Proc)) {
	e.GoAfter(name, 0, fn)
}

// GoAfter starts fn as a simulated process after delay seconds of virtual
// time. The process's start node takes its schedule position now, so among
// same-instant events it orders exactly where a Wait of the same delay
// issued at this point would.
func (e *Engine) GoAfter(name string, delay float64, fn func(p *Proc)) {
	var p *Proc
	if k := len(e.freeProcs); k > 0 {
		p = e.freeProcs[k-1]
		e.freeProcs[k-1] = nil
		e.freeProcs = e.freeProcs[:k-1]
	} else if p = adoptProc(e); p == nil {
		p = &Proc{eng: e}
		p.ev.eng = e
		p.ev.index = -1
		p.ev.proc = p
		p.ev.owned = true
		p.resume, p.stop = iter.Pull(p.run)
		e.allProcs = append(e.allProcs, p)
	}
	p.pooled = false
	p.name, p.fn = name, fn
	e.liveProcs++
	e.schedNode(&p.ev, delay)
}

// run is the process coroutine body: it runs the current function; when the
// function returns the Proc pools itself and suspends until the engine
// either assigns it new work (pool reuse via Go) or stops the coroutine
// (simulation over). A stop that lands while the process is suspended
// mid-task (inside suspend) unwinds the process function with a procStopped
// panic, recovered here.
func (p *Proc) run(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procStopped); !ok {
				panic(r)
			}
		}
	}()
	p.yield = yield
	for {
		p.fn(p)
		// p.eng is re-read each cycle: a pooled coroutine may be adopted by
		// a different engine between runs.
		e := p.eng
		e.liveProcs--
		p.fn = nil
		p.name = ""
		p.pooled = true
		e.freeProcs = append(e.freeProcs, p)
		if !yield(struct{}{}) {
			return // engine shut down the pool
		}
		// Resumed by a later Go with a fresh fn.
	}
}

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the diagnostic name given to Engine.Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// suspend returns control to the dispatch loop until this process's own
// wake-up arrives. It must only be called with a wake-up already arranged:
// the process's resume node scheduled (Wait, unpark) or a queue
// registration that will eventually unpark it, otherwise Run reports a
// deadlock.
func (p *Proc) suspend() {
	e := p.eng
	e.parkedProcs++
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
	e.parkedProcs--
}

// park blocks the process until another event resumes it via unpark.
func (p *Proc) park() { p.suspend() }

// unpark schedules the process's pre-bound resume node at the current
// instant; when it is dispatched, the dispatch loop switches control to the
// parked process directly. It must be called from the engine side (an event
// callback) or from another process; never from the parked process itself.
// A parked process has no pending node (Wait's node fired before it
// parked), so the node is always free here.
func (p *Proc) unpark() {
	p.eng.schedNode(&p.ev, 0)
}

// Wait advances the process by d seconds of virtual time. d must be
// non-negative; zero is allowed and yields to other events scheduled at the
// same instant.
//
// Fast path: when the resume would fire strictly before every pending
// event, no other event can run during the wait — parking would bounce
// control to the dispatch loop only for it to switch straight back — so
// the clock advances in place, skipping the schedule/park/pop/resume
// cycle (two coroutine switches and a heap push+pop). The strictness
// matters: a pending event at exactly the resume instant holds a smaller
// seq and must run first, so ties take the slow path.
func (p *Proc) Wait(d float64) {
	e := p.eng
	if d >= 0 && e.ringLive == 0 {
		if t := e.now + d; len(e.heap) == 0 || t < e.heap[0].at {
			e.now = t
			return
		}
	}
	e.schedNode(&p.ev, d)
	p.suspend()
}
