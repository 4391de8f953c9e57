package sim

import "fmt"

// Server is a capacity-constrained resource with a FIFO wait queue. It
// models CPU cores, GPU devices and the scheduler master thread: at most
// Capacity activities hold the server at once; further Acquire calls queue
// in arrival order.
//
// The wait queue is a head-index ring buffer, so dequeueing a waiter on
// Release is O(1) instead of sliding the whole slice.
//
// Server also integrates its occupancy over virtual time so experiments can
// report resource utilization (the paper's "resource wastage" discussion).
type Server struct {
	eng  *Engine
	name string
	cap  int

	inUse int

	// FIFO waiters: ring buffer of qlen entries starting at queue[qhead].
	queue []*Activity
	qhead int
	qlen  int

	lastChange float64
	busyInt    float64 // ∫ inUse dt
	acquired   uint64  // total successful acquisitions
}

// NewServer creates a server with the given capacity. Capacity must be
// positive.
func NewServer(e *Engine, name string, capacity int) *Server {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: server %q with capacity %d", name, capacity))
	}
	return &Server{eng: e, name: name, cap: capacity}
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Capacity returns the number of concurrent holders the server admits.
func (s *Server) Capacity() int { return s.cap }

// InUse returns the number of activities currently holding the server.
func (s *Server) InUse() int { return s.inUse }

// QueueLen returns the number of activities waiting to acquire the server.
func (s *Server) QueueLen() int { return s.qlen }

// Acquired returns the total number of successful acquisitions so far.
func (s *Server) Acquired() uint64 { return s.acquired }

// qpush appends a waiter to the ring, growing (and linearizing) it when
// full.
func (s *Server) qpush(a *Activity) {
	if s.qlen == len(s.queue) {
		grown := make([]*Activity, max(2*len(s.queue), 8))
		for i := 0; i < s.qlen; i++ {
			grown[i] = s.queue[(s.qhead+i)%len(s.queue)]
		}
		s.queue = grown
		s.qhead = 0
	}
	s.queue[(s.qhead+s.qlen)%len(s.queue)] = a
	s.qlen++
}

// qpop removes and returns the head waiter.
func (s *Server) qpop() *Activity {
	a := s.queue[s.qhead]
	s.queue[s.qhead] = nil
	s.qhead = (s.qhead + 1) % len(s.queue)
	s.qlen--
	return a
}

func (s *Server) accumulate() {
	now := s.eng.now
	s.busyInt += float64(s.inUse) * (now - s.lastChange)
	s.lastChange = now
}

// Acquire takes a slot for a and reports true when one is free and nobody
// is queued ahead. Otherwise a joins the FIFO queue and Acquire reports
// false: the step must return, and resumes holding the slot — the releaser
// takes it on a's behalf (see Release). Slots are granted strictly in
// arrival order.
func (s *Server) Acquire(a *Activity) bool {
	if s.TryAcquire() {
		return true
	}
	s.qpush(a)
	s.eng.parked++
	return false
}

// TryAcquire takes a slot if one is immediately free and no activity is
// queued ahead; it reports whether the acquisition succeeded.
func (s *Server) TryAcquire() bool {
	if s.inUse < s.cap && s.qlen == 0 {
		s.accumulate()
		s.inUse++
		s.acquired++
		return true
	}
	return false
}

// Release frees one slot. If activities are queued, the slot is handed
// directly to the head of the queue (so capacity can never be stolen by a
// later arrival) and that activity is woken at the current instant.
func (s *Server) Release() {
	if s.inUse <= 0 {
		// Fatal invariant violation: formats once, then the run dies.
		//wfsimlint:allow hotalloc
		panic(fmt.Sprintf("sim: Release of idle server %q", s.name))
	}
	s.accumulate()
	s.inUse--
	if s.qlen > 0 {
		next := s.qpop()
		s.inUse++ // hand the slot to next before anyone else can take it
		s.acquired++
		s.eng.parked--
		next.unpark()
	}
}

// BusyTime returns the occupancy integral ∫ inUse dt up to the current
// virtual time, in slot-seconds.
func (s *Server) BusyTime() float64 {
	return s.busyInt + float64(s.inUse)*(s.eng.now-s.lastChange)
}

// ServiceLine is a capacity-1 FIFO dispatch gate: anonymous requests line
// up for the station, and each grant runs the line's onGrant callback
// engine-side at the grant instant. Unlike Server, a request carries no
// activity — the holder's work is whatever onGrant schedules (typically an
// activity started with Engine.Start once the decision's service time
// elapses) — so a queued request is a counter, not a parked activity. End
// passes the station to the next request via a grant event at the current
// instant: the exact schedule position a Server's wake-up of that waiter
// would occupy, so event ordering matches the Acquire/Release protocol it
// replaces.
type ServiceLine struct {
	eng     *Engine
	name    string
	onGrant func()
	busy    bool
	waiters int

	grantFn  func() // pre-bound grant, so scheduling one allocates nothing
	acquired uint64
}

// NewServiceLine creates an idle service line.
func NewServiceLine(e *Engine, name string) *ServiceLine {
	s := &ServiceLine{eng: e, name: name}
	s.grantFn = s.grant
	return s
}

// Name returns the line's diagnostic name.
func (s *ServiceLine) Name() string { return s.name }

// Capacity returns 1: a service line serves one request at a time.
func (s *ServiceLine) Capacity() int { return 1 }

// QueueLen returns the number of requests waiting for the station.
func (s *ServiceLine) QueueLen() int { return s.waiters }

// Acquired returns the total number of granted requests so far.
func (s *ServiceLine) Acquired() uint64 { return s.acquired }

// SetOnGrant installs the grant-instant callback. It must be set before the
// simulation runs and is shared by every request.
func (s *ServiceLine) SetOnGrant(fn func()) { s.onGrant = fn }

// Request asks for the station. If it is free the grant happens
// immediately (onGrant runs inline); otherwise the request queues and is
// granted in arrival order as holders call End.
func (s *ServiceLine) Request() {
	if s.busy {
		s.waiters++
		return
	}
	s.busy = true
	s.grant()
}

// grant hands the station to the oldest outstanding request.
func (s *ServiceLine) grant() {
	s.acquired++
	if s.onGrant != nil {
		s.onGrant()
	}
}

// End releases the station. With requests queued it is handed directly to
// the oldest one via a grant event at the current instant.
func (s *ServiceLine) End() {
	if !s.busy {
		// Fatal invariant violation: formats once, then the run dies.
		//wfsimlint:allow hotalloc
		panic(fmt.Sprintf("sim: End of idle service line %q", s.name))
	}
	if s.waiters > 0 {
		s.waiters--
		s.eng.Schedule(0, s.grantFn)
		return // busy stays true: the station moved, it never went idle
	}
	s.busy = false
}

// Utilization returns the mean fraction of capacity in use over [0, now].
// It returns 0 before any virtual time has elapsed.
func (s *Server) Utilization() float64 {
	if s.eng.now == 0 {
		return 0
	}
	return s.BusyTime() / (float64(s.cap) * s.eng.now)
}
