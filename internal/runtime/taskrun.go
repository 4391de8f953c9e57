package runtime

import (
	"fmt"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/metrics"
	"wfsim/internal/sched"
	"wfsim/internal/sim"
	"wfsim/internal/storage"
)

// taskRun is the lifecycle of one dispatched task as an engine-side step
// machine: placement on the master, then the Figure 4 pipeline on the
// placed node (§4.2: sched → deser → comm-in → parallel → comm-out →
// serial → ser), then completion bookkeeping. grantNext starts its
// activity once the scheduling decision's service time has elapsed; every
// later wake-up re-enters Step, which resumes at pc.
//
// Runs are pooled on the simRun and retained across trials by Arena, so
// the task lifecycle allocates nothing in steady state. The fault paths
// (epoch checks, aborts, retries, lineage recovery) live in taskfaults.go.
type taskRun struct {
	act sim.Activity
	r   *simRun
	pc  taskPC

	ref    sched.TaskRef
	s      *session
	task   *dag.Task
	prof   costmodel.Profile
	dev    costmodel.DeviceKind
	node   *cluster.Node
	nodeID int
	slot   int     // physical core index on the node
	core   int     // cluster-wide core ID; -1 until a core is held
	speed  float64 // CPU-side compute-rate multiplier for this attempt

	bodyStart  float64 // instant the attempt held all its devices
	stageStart float64 // start of the stage in progress
	readBytes  float64 // input bytes read so far

	// Storage walk: item indexes ref.Inputs (reads) or task.Params
	// (writes); leg walks the current block's legs, -1 until fetched.
	item      int
	legs      storage.Legs
	leg       int
	restaging bool // the current read re-stages a lost workflow input

	// Fault-injection state, untouched in fault-free runs.
	buf      *attemptRecs // the attempt's buffered records; nil fault-free
	epoch    uint64
	failNow  bool
	failFrac float64
}

// taskPC is the stage a taskRun resumes at: each names what has just
// completed when the run wakes there.
type taskPC uint8

const (
	pcPlace   taskPC = iota // the decision delay elapsed, master held
	pcCores                 // a core was granted
	pcGPU                   // the GPU was granted (or none is needed)
	pcRead                  // a storage leg of an input read completed
	pcDeser                 // CPU decode done
	pcCommIn                // host-to-device transfer done
	pcKernel                // user-code parallel fraction done
	pcCommOut               // device-to-host transfer done
	pcSerial                // serial fraction done
	pcWrite                 // CPU encode or a storage leg of an output write done
	pcFailed                // an injected failure struck mid-kernel
	pcRetry                 // a failed attempt's backoff elapsed
)

// getRun returns an idle task run set to start at placement.
func (r *simRun) getRun() *taskRun {
	var t *taskRun
	if k := len(r.runs); k > 0 {
		t = r.runs[k-1]
		r.runs = r.runs[:k-1]
	} else {
		// Carve from a fixed-size chunk: the pool warms with one
		// allocation per 64 concurrent tasks, bounded by the run's peak
		// concurrency and retained across trials by the Arena.
		if len(r.runSlab) == 0 {
			r.runSlab = make([]taskRun, 64) //wfsimlint:allow hotalloc
		}
		t = &r.runSlab[0]
		r.runSlab = r.runSlab[1:]
		t.r = r
		t.act.Init(r.eng, t)
	}
	t.pc = pcPlace
	return t
}

// putRun returns a finished run to the pool. The caller must not touch t
// afterwards: the next grant may reuse it.
func (r *simRun) putRun(t *taskRun) {
	t.s, t.task = nil, nil
	t.ref = sched.TaskRef{}
	r.runs = append(r.runs, t) //wfsimlint:allow hotalloc -- bounded by peak concurrency
}

// adoptRuns moves the arena's idle task runs, and the rest of its slab
// chunk, onto this run's engine.
func (r *simRun) adoptRuns(a *Arena) {
	r.runs, a.runs = a.runs, nil
	r.runSlab, a.runSlab = a.runSlab, nil
	for _, t := range r.runs {
		t.r = r
		t.act.Init(r.eng, t)
	}
}

// releaseRuns donates the idle task runs and the slab's unused rest to
// the arena for the next trial.
func (r *simRun) releaseRuns(a *Arena) {
	a.runs, r.runs = r.runs, nil
	a.runSlab, r.runSlab = r.runSlab, nil
}

// Step advances the run from pc through every stage that completes
// without blocking, and returns when a primitive parks it or the run
// ends. Stages fall through in pipeline order, so the fault-free path
// reads straight down.
func (t *taskRun) Step() {
	r := t.r
	switch t.pc {
	case pcPlace:
		if !t.place() {
			return
		}
		// Occupy a worker core for the whole task (COMPSs binds the task
		// to a core; GPU tasks keep their host core while the kernel
		// runs). A GPU-accelerated task additionally reserves its GPU
		// device for its entire lifetime (a COMPSs {CPU:1, GPU:1}
		// constraint: GPU worker deployments expose one executor slot per
		// device). This is why "we can execute in parallel a maximum of
		// 128 CPU-based tasks and only 32 GPU-accelerated tasks" (§3.3) —
		// the task-level-parallelism asymmetry at the heart of the
		// paper's parallel-task results.
		t.pc = pcCores
		if !t.node.Cores.Acquire(&t.act) {
			return
		}
		fallthrough
	case pcCores:
		t.slot = r.acquireSlot(t.nodeID)
		t.core = t.nodeID*r.cfg.Cluster.CoresPerNode + t.slot
		t.pc = pcGPU
		if t.dev == costmodel.GPU && !t.node.GPUs.Acquire(&t.act) {
			return
		}
		fallthrough
	case pcGPU:
		t.bodyStart = t.act.Now()
		if t.crashed() {
			return
		}
		// Deserialization: storage reads of every input, then CPU decode.
		t.stageStart = t.bodyStart
		t.readBytes, t.item, t.leg = 0, 0, -1
		t.pc = pcRead
		fallthrough
	case pcRead:
		if !t.readInputs() {
			return
		}
		t.pc = pcDeser
		if t.readBytes > 0 && !t.act.Wait(t.readBytes/r.params.DeserRate/t.speed) {
			return
		}
		fallthrough
	case pcDeser:
		t.rec(metrics.StageDeser)
		if t.crashed() {
			return
		}
		// User code. A GPU task first copies its inputs host-to-device on
		// the node's contended PCIe bus.
		t.stageStart = t.act.Now()
		t.pc = pcCommIn
		if t.dev == costmodel.GPU && t.prof.BytesIn > 0 && !t.node.PCIe.Transfer(&t.act, t.prof.BytesIn) {
			return
		}
		fallthrough
	case pcCommIn:
		if t.dev == costmodel.GPU {
			t.rec(metrics.StageCommIn)
			t.stageStart = t.act.Now()
		}
		kt := t.kernelTime()
		if t.failNow {
			// The injected failure strikes partway through the kernel.
			t.pc = pcFailed
			if !t.act.Wait(kt * t.failFrac) {
				return
			}
			t.fail()
			return
		}
		t.pc = pcKernel
		if (t.dev == costmodel.GPU || kt > 0) && !t.act.Wait(kt) {
			return
		}
		fallthrough
	case pcKernel:
		t.rec(metrics.StageParallel)
		t.stageStart = t.act.Now()
		t.pc = pcCommOut
		if t.dev == costmodel.GPU && t.prof.BytesOut > 0 && !t.node.PCIe.Transfer(&t.act, t.prof.BytesOut) {
			return
		}
		fallthrough
	case pcCommOut:
		if t.dev == costmodel.GPU {
			t.rec(metrics.StageCommOut)
		}
		// The serial fraction always runs on the host core (§3.3).
		t.stageStart = t.act.Now()
		t.pc = pcSerial
		if t.prof.SerialOps > 0 && !t.act.Wait(r.params.SerialTime(t.prof)/t.speed) {
			return
		}
		fallthrough
	case pcSerial:
		t.rec(metrics.StageSerial)
		if t.crashed() {
			return
		}
		// Serialization: CPU encode, then storage writes of every output.
		t.stageStart = t.act.Now()
		t.item, t.leg = 0, -1
		t.pc = pcWrite
		if w := t.writeBytes(); w > 0 && !t.act.Wait(w/r.params.SerRate/t.speed) {
			return
		}
		fallthrough
	case pcWrite:
		if !t.writeOutputs() {
			return
		}
		t.rec(metrics.StageSer)
		if t.crashedWriting() {
			return
		}
		t.finish()
	case pcFailed:
		t.fail()
	case pcRetry:
		t.retry()
	}
}

// place runs at the instant the scheduling decision completes, with the
// master held: it pops the granted ref, places the task, releases the
// master and opens the attempt. It reports false when the run ended here
// (every node down: the ref stalls until a repair).
func (t *taskRun) place() bool {
	r := t.r
	t.ref, _ = r.granted.PopFront()
	t.s = r.sessions[t.ref.Session]
	nodeID := r.scheduler.Place(t.ref, &r.view)
	if nodeID < 0 && r.faults != nil && !r.faults.AnyUp() {
		r.stall(t.ref)
		r.clu.Master.End()
		r.putRun(t)
		return false
	}
	r.clu.Master.End()
	if nodeID < 0 || nodeID >= r.cfg.Cluster.Nodes {
		// Fatal invariant violation: formats once, then the run dies.
		//wfsimlint:allow hotalloc
		panic(fmt.Sprintf("runtime: scheduler placed task %d on invalid node %d", t.ref.ID, nodeID))
	}
	r.load[nodeID]++

	t.task = t.s.wf.Graph.Task(t.ref.ID)
	t.prof = t.s.wf.Spec(t.task).Profile
	t.dev = taskDevice(t.prof, r.cfg.Device)
	t.nodeID, t.node, t.core = nodeID, r.clu.Node(nodeID), -1
	t.speed = 1
	if r.cfg.NodeSpeed != nil {
		t.speed = r.cfg.NodeSpeed[nodeID]
	}
	if r.faults != nil {
		t.openAttempt()
	} else {
		t.buf, t.failNow = nil, false
	}
	t.stageStart = t.ref.Enqueued // the sched stage is the ready-queue wait
	t.rec(metrics.StageSched)
	return true
}

// readInputs walks every input block's storage legs in order. It reports
// false when a transfer parked the run or a lost input ended the attempt.
func (t *taskRun) readInputs() bool {
	for ; t.item < len(t.ref.Inputs); t.item, t.leg = t.item+1, -1 {
		in := t.ref.Inputs[t.item]
		if t.leg < 0 {
			legs, ok := t.r.store.Read(t.node, in.ID)
			if !ok {
				if legs, ok = t.recoverInput(in); !ok {
					return false
				}
			}
			t.legs, t.leg = legs, 0
		}
		if !t.walk(in.Bytes) {
			return false
		}
		if t.restaging {
			t.restaged(in)
		}
		t.readBytes += in.Bytes
	}
	return true
}

// writeBytes is the task's total output volume.
func (t *taskRun) writeBytes() float64 {
	ids := t.task.DataIDs()
	var total float64
	for i, prm := range t.task.Params {
		if prm.Writes() {
			total += t.s.wf.SizeByID(ids[i])
		}
	}
	return total
}

// writeOutputs walks every output block's storage legs in order and
// commits each block's location once its last leg completes. It reports
// false when a transfer parked the run.
func (t *taskRun) writeOutputs() bool {
	ids := t.task.DataIDs()
	for ; t.item < len(t.task.Params); t.item, t.leg = t.item+1, -1 {
		if !t.task.Params[t.item].Writes() {
			continue
		}
		id := ids[t.item]
		if t.leg < 0 {
			t.legs, t.leg = t.r.store.Write(t.node), 0
		}
		if !t.walk(t.s.wf.SizeByID(id)) {
			return false
		}
		t.r.store.Place(t.s.gid(id), t.nodeID)
	}
	return true
}

// walk moves bytes over the current block's remaining legs in order. It
// reports false when a transfer parked the run.
func (t *taskRun) walk(bytes float64) bool {
	for t.leg < t.legs.Len() {
		l := t.legs.Leg(t.leg)
		t.leg++
		if !l.Transfer(&t.act, bytes) {
			return false
		}
	}
	return true
}

// kernelTime is the duration of the user code's parallel fraction on the
// placed device.
func (t *taskRun) kernelTime() float64 {
	r := t.r
	if t.dev == costmodel.GPU {
		return r.params.ParallelTime(t.prof, costmodel.GPU)
	}
	if t.prof.ParallelOps <= 0 {
		return 0
	}
	kt := r.params.ParallelTime(t.prof, costmodel.CPU)
	// A task alone at its DAG level has no task-level parallelism to
	// protect: its vectorized kernel spreads over the node's idle cores
	// (NumPy/BLAS threading), which is why the paper's parallel-task time
	// *drops* at the maximum block size (§5.3) instead of growing further.
	if t.s.levelWidth[t.task.Level] == 1 {
		kt /= r.params.SoloThreadSpeedup
	}
	return kt / t.speed
}

// rec records the stage that ran from stageStart to now: into the
// attempt's buffer under fault injection, straight to the session's sink
// on the fault-free path.
func (t *taskRun) rec(stage metrics.Stage) {
	rec := metrics.Record{
		TaskID: t.task.ID, TaskName: t.task.Name, Level: t.task.Level,
		Node: t.nodeID, Core: t.core, Device: t.dev.String(),
		Stage: stage, Start: t.stageStart, End: t.act.Now(),
	}
	if t.buf != nil {
		t.buf.recs[t.buf.n] = rec
		t.buf.n++
		return
	}
	t.s.sink.Observe(rec)
}

// release frees the devices the attempt holds.
func (t *taskRun) release() {
	r := t.r
	if t.dev == costmodel.GPU {
		t.node.GPUs.Release()
	}
	r.releaseSlot(t.nodeID, t.slot)
	t.node.Cores.Release()
	r.load[t.nodeID]--
}

// finish completes a successful attempt: releases its devices, publishes
// its records and runs the task's completion bookkeeping.
func (t *taskRun) finish() {
	r, s, task := t.r, t.s, t.task
	t.release()
	if t.buf != nil {
		t.flush()
	}
	r.putRun(t)
	r.completeTask(s, task)
}
