package runtime

import (
	"fmt"

	"wfsim/internal/dag"
	"wfsim/internal/metrics"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

// The fault paths of a task run. Under injection an attempt checks its
// node's restart epoch at stage boundaries — the COMPSs master notices
// worker loss when a dispatched task's result is due, not preemptively —
// and aborts on a mismatch, releasing every held resource. Every function
// here is a no-op or unreachable in a fault-free run.

// attemptRecs buffers one attempt's stage records so an aborted attempt
// leaves a single StageRecovery span instead of a torn half-pipeline.
// Fault-free runs bypass the buffer and append records directly.
type attemptRecs struct {
	recs [metrics.NumStages]metrics.Record
	n    int
}

// openAttempt draws the attempt's fault state: the node epoch it must
// finish within, the straggler slowdown, and whether an injected failure
// will kill it. The record buffer is reused across the run's attempts.
func (t *taskRun) openAttempt() {
	inj := t.r.faults
	if t.buf == nil {
		t.buf = &attemptRecs{}
	}
	t.buf.n = 0
	t.epoch = inj.Epoch(t.nodeID)
	t.speed *= inj.Speed(t.nodeID)
	t.failNow, t.failFrac = inj.AttemptFails()
}

// crashed is the stage-boundary epoch check: when the node restarted since
// the attempt began, the attempt aborts and the task re-queues now. It
// reports whether the run ended.
func (t *taskRun) crashed() bool {
	r := t.r
	if r.faults == nil || r.faults.Epoch(t.nodeID) == t.epoch {
		return false
	}
	s, task := t.s, t.task
	t.abort()
	r.putRun(t)
	r.stats.CrashRequeues++
	r.enqueue(s, task)
	return true
}

// crashedWriting is the epoch check after the output writes: local copies
// of the outputs died with the node (shared storage keeps them — Drop is a
// no-op there) before the attempt aborts.
func (t *taskRun) crashedWriting() bool {
	r := t.r
	if r.faults == nil || r.faults.Epoch(t.nodeID) == t.epoch {
		return false
	}
	ids := t.task.DataIDs()
	for i, prm := range t.task.Params {
		if prm.Writes() {
			r.store.Drop(t.s.gid(ids[i]))
		}
	}
	return t.crashed()
}

// abort releases everything a doomed attempt holds and records its wasted
// span as a single StageRecovery record — the core time the fault burned,
// visible in traces and Gantt timelines as 'x'.
func (t *taskRun) abort() {
	t.release()
	now := t.act.Now()
	t.r.stats.WastedWork += now - t.bodyStart
	t.s.sink.Observe(metrics.Record{
		TaskID: t.task.ID, TaskName: t.task.Name, Level: t.task.Level,
		Node: t.nodeID, Core: t.core, Device: t.dev.String(),
		Stage: metrics.StageRecovery, Start: t.bodyStart, End: now,
	})
}

// fail ends an attempt killed by an injected transient failure: the task
// retries after a backoff unless it has exhausted its attempts, which
// aborts the whole run.
func (t *taskRun) fail() {
	r, s, task := t.r, t.s, t.task
	t.abort()
	r.stats.TransientFailures++
	s.attempts[task.ID]++
	n := int(s.attempts[task.ID])
	if n >= r.fcfg.MaxAttempts {
		// Terminal failure path: the run aborts right after.
		//wfsimlint:allow hotalloc
		r.failErr = fmt.Errorf("runtime: task %d (%s) exhausted %d attempts under transient failures",
			task.ID, task.Name, n)
		r.faults.Stop()
		r.putRun(t)
		return
	}
	r.stats.Retries++
	// The run itself waits out the backoff, then re-queues the task.
	t.pc = pcRetry
	r.eng.Start(&t.act, r.fcfg.Backoff(n))
}

// retry re-queues a failed task once its backoff has elapsed.
func (t *taskRun) retry() {
	r, s, task := t.r, t.s, t.task
	r.putRun(t)
	r.enqueue(s, task)
}

// recoverInput handles a read that missed. Fault-free, every input must
// have been placed or written before its consumer dispatched, so a miss is
// a placement bug. Under injection, a block produced upstream died with a
// local disk: lineage recovery re-executes the producer, and this attempt
// aborts and waits for it (ok false). A workflow input is durable at its
// archival source and is re-staged onto this node through the network:
// the returned legs.
func (t *taskRun) recoverInput(in sched.DataLoc) (legs storage.Legs, ok bool) {
	r, s, task := t.r, t.s, t.task
	if r.faults == nil {
		// Fatal invariant violation: formats once, then the run dies.
		//wfsimlint:allow hotalloc
		panic(fmt.Sprintf("runtime: task %d (%s) read unknown block %d with fault injection off — block placement bug",
			task.ID, task.Name, in.ID))
	}
	if prod := r.producerOf(s, task, in.ID); prod >= 0 {
		r.addWaiter(s, prod, task.ID)
		t.abort()
		r.putRun(t)
		return storage.Legs{}, false
	}
	t.restaging = true
	return storage.NewLegs(t.node.NIC, r.clu.Shared), true
}

// restaged commits a re-staged workflow input to the reader's node.
func (t *taskRun) restaged(in sched.DataLoc) {
	t.restaging = false
	t.r.store.Place(in.ID, t.nodeID)
	t.r.stats.InputRestages++
}

// flush publishes a successful attempt's buffered records and resets the
// task's transient-failure budget: a success (including lineage
// re-execution) proves the task can make progress.
func (t *taskRun) flush() {
	r, s := t.r, t.s
	for i := 0; i < t.buf.n; i++ {
		s.sink.Observe(t.buf.recs[i])
	}
	if s.doneTask[t.task.ID] {
		// A lineage re-execution of an already-completed producer.
		r.stats.RecoveryWork += t.act.Now() - t.bodyStart
	}
	s.attempts[t.task.ID] = 0
}

// stall parks a ref dispatched while every node is down; the next repair
// re-files it (onNodeRepair) with its original enqueue instant intact.
func (r *simRun) stall(ref sched.TaskRef) {
	r.stats.Stalls++
	r.stalled.Push(ref)
}

// producerOf returns the dependency of task that writes datum id (given
// as a global ID), or -1 when no dependency produces it (the datum is a
// workflow input). The scan is the lineage walk: dependencies hold every
// producer the DAG's last-writer edge inference linked to this task.
func (r *simRun) producerOf(s *session, task *dag.Task, id int32) int {
	local := id - s.dataBase
	for _, dep := range task.Deps() {
		dt := s.wf.Graph.Task(dep)
		ids := dt.DataIDs()
		for i, prm := range dt.Params {
			if prm.Writes() && ids[i] == local {
				return dep
			}
		}
	}
	return -1
}

// addWaiter parks a task on a producer's re-execution and submits the
// producer if it is not already queued or running.
func (r *simRun) addWaiter(s *session, prod, waiter int) {
	s.waiters[prod] = append(s.waiters[prod], int32(waiter))
	if !s.inFlight[prod] {
		r.stats.LineageRecomputes++
		r.enqueue(s, s.wf.Graph.Task(prod))
	}
}

// onNodeCrash fires engine-side at a crash instant: whatever the node's
// local disk held is gone. Tasks running on the node notice at their next
// stage boundary (epoch mismatch) and re-queue themselves.
func (r *simRun) onNodeCrash(node int) {
	r.stats.Crashes++
	r.stats.BlocksLost += r.store.Invalidate(node)
}

// onNodeRepair fires engine-side when a node rejoins: refs that stalled
// with the whole cluster down re-enter the ready queue.
func (r *simRun) onNodeRepair(int) {
	for r.stalled.Len() > 0 {
		ref, _ := r.stalled.PopFront()
		r.queue.Push(ref)
		r.eng.Schedule(0, r.requestFn)
	}
}
