package runtime

import (
	"wfsim/internal/sched"
	"wfsim/internal/sim"
)

// Arena recycles a simulated run's substrate allocations across trials:
// the engine's event-node slabs, heap and ring storage (sim.Arena), the
// pooled task-run step machines, the per-task dependency counters, the
// ready and granted queues' ring storage, and the ready-queue
// input-location slab. A sweep worker that owns an Arena pays these
// allocations on its first trial only.
//
// An Arena may serve one run at a time — sharing one across concurrent
// RunSim calls is a data race. internal/runner hands each worker its own
// per-worker state for exactly this reason. Everything an Arena retains
// is either re-stamped (event nodes, task runs) or zeroed (dependency
// counters) on reuse; see DESIGN.md §12 for the full lifetime rules.
type Arena struct {
	nodes     sim.Arena
	runs      []*taskRun
	runSlab   []taskRun
	remaining []int
	inputs    []sched.DataLoc
	load      []int
	// queue and granted are the dispatch queues, handed to each run and
	// back on success.
	queue, granted sched.Queue
}

// grabRemaining returns a zeroed dependency-counter slice of length n,
// reusing the arena's buffer when it is large enough.
func (a *Arena) grabRemaining(n int) []int {
	if cap(a.remaining) < n {
		a.remaining = make([]int, n)
		return a.remaining
	}
	s := a.remaining[:n]
	clear(s)
	return s
}

// grabLoad returns a zeroed per-node load slice of length n.
func (a *Arena) grabLoad(n int) []int {
	if cap(a.load) < n {
		a.load = make([]int, n)
		return a.load
	}
	s := a.load[:n]
	clear(s)
	return s
}
