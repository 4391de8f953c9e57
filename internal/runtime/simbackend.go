package runtime

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/faults"
	"wfsim/internal/metrics"
	"wfsim/internal/sched"
	"wfsim/internal/sim"
	"wfsim/internal/storage"
)

// SimConfig selects the execution environment for a simulated run: the
// factor combination of the paper's Table 1 (resources + system
// dimensions).
type SimConfig struct {
	// Cluster is the topology; defaults to Minotauro when zero.
	Cluster cluster.Spec
	// Params are the calibrated device/link rates; defaults to
	// costmodel.DefaultParams when zero.
	Params *costmodel.Params
	// Storage selects the storage architecture factor.
	Storage storage.Architecture
	// Policy selects the scheduling policy factor.
	Policy sched.Policy
	// Device selects the processor-type factor: with GPU, every task with
	// a parallel fraction is GPU-accelerated (the paper's assignment rule,
	// §3.3); serial tasks always run on CPU.
	Device costmodel.DeviceKind
	// Seed feeds the Random scheduling policy.
	Seed uint64
	// NodeSpeed optionally scales per-node compute rates (1.0 = nominal,
	// 0.5 = half-speed straggler). Length must match the cluster's node
	// count when set. Models resource heterogeneity beyond the paper's
	// uniform testbed — useful for scheduler stress studies.
	NodeSpeed []float64
	// Faults parameterizes deterministic failure injection (node
	// crashes, transient task failures, straggler episodes). The zero
	// value disables injection entirely: the run is byte-identical to
	// one built before the fault machinery existed.
	Faults faults.Config
	// Sink, when non-nil, streams every stage record into the given
	// consumer instead of retaining them in a run-private Collector:
	// metrics memory becomes O(aggregate state) instead of O(tasks), the
	// regime million-task runs need. SimResult.Collector is nil in this
	// mode (per-workflow results from ClusterSim likewise carry no
	// collector). The sink must not be shared with a concurrent run; in
	// a multi-workflow run every session feeds the same sink.
	Sink metrics.Sink
	// Arena, when non-nil, recycles substrate storage (event-node slabs,
	// heap and ring backing, dependency counters, input slabs) across
	// runs that release into it. One run at a time per arena.
	Arena *Arena
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Cluster.Nodes == 0 {
		c.Cluster = cluster.Minotauro()
	}
	if c.Params == nil {
		p := costmodel.DefaultParams()
		c.Params = &p
	}
	return c
}

// Validate rejects structurally invalid configurations with an error
// instead of silently patching them. The zero cluster spec is legal (it
// means "use the default topology"), but a partially-filled spec with
// non-positive node or core counts is an error, as are negative fault
// rates — a disabled-but-negative fault config used to be silently
// ignored. NodeSpeed entries must be positive; the length-vs-cluster
// check happens after defaults are applied, where the final node count
// is known.
func (c SimConfig) Validate() error {
	if c.Cluster.Nodes != 0 || c.Cluster.CoresPerNode != 0 || c.Cluster.GPUsPerNode != 0 {
		if err := c.Cluster.Validate(); err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
	}
	if err := c.Faults.CheckRanges(); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	for i, s := range c.NodeSpeed {
		if s <= 0 {
			return fmt.Errorf("runtime: NodeSpeed[%d] = %v, must be positive", i, s)
		}
	}
	return nil
}

// FaultStats summarizes what failure injection did to a run and what
// recovery cost. All fields are zero when injection is disabled.
type FaultStats struct {
	// Crashes is the number of node crash events.
	Crashes int
	// BlocksLost counts blocks whose only copy died with a node's local
	// disk (always 0 on shared storage).
	BlocksLost int
	// Episodes is the number of straggler slowdown episodes.
	Episodes int
	// TransientFailures counts task attempts killed by injected
	// per-attempt failures.
	TransientFailures int
	// Retries counts re-queues of transiently failed tasks (one per
	// failure that did not exhaust MaxAttempts).
	Retries int
	// CrashRequeues counts attempts re-queued because their node crashed
	// under them.
	CrashRequeues int
	// Stalls counts dispatches that found every node down and had to
	// wait for a repair.
	Stalls int
	// LineageRecomputes counts producer tasks re-executed to
	// re-materialize blocks lost with a local disk.
	LineageRecomputes int
	// InputRestages counts workflow input blocks re-fetched from the
	// durable source after their staged copy was lost.
	InputRestages int
	// WastedWork is total core time burned by aborted attempts.
	WastedWork float64
	// RecoveryWork is total core time spent re-executing
	// already-completed producer tasks for lineage recovery.
	RecoveryWork float64
}

// SimResult is the outcome of a simulated run.
type SimResult struct {
	// Collector holds every per-stage record for aggregation.
	Collector *metrics.Collector
	// Makespan is the workflow's total virtual execution time.
	Makespan float64
	// CoreUtilization and GPUUtilization are mean busy fractions.
	CoreUtilization float64
	GPUUtilization  float64
	// SchedDecisions counts scheduler dispatches (== tasks).
	SchedDecisions int
	// Faults reports failure-injection activity (zero when disabled).
	Faults FaultStats
	// Engine counts what the discrete-event engine did: events
	// dispatched, fast-path waits, zero-delay ring hits, peak pending.
	Engine sim.Stats
}

// RunSim executes the workflow on the simulated cluster and returns the
// collected metrics. It returns costmodel.ErrGPUOOM / ErrHostOOM when any
// task's footprint exceeds device/host memory — the "GPU OOM" and "CPU GPU
// OOM" annotations in the paper's figures — without running the workflow,
// matching how an OOM aborts the paper's real executions.
func RunSim(wf *Workflow, cfg SimConfig) (*SimResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if !wf.Frozen() { // Freeze already validated a frozen workflow
		if err := wf.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.NodeSpeed != nil && len(cfg.NodeSpeed) != cfg.Cluster.Nodes {
		return nil, fmt.Errorf("runtime: NodeSpeed has %d entries for %d nodes",
			len(cfg.NodeSpeed), cfg.Cluster.Nodes)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	fcfg := cfg.Faults.WithDefaults()
	if fcfg.Enabled() {
		if err := fcfg.Validate(); err != nil {
			return nil, fmt.Errorf("runtime: %w", err)
		}
	}
	if err := preflightMemory(wf, cfg); err != nil {
		return nil, err
	}

	run, err := newSimRun(cfg, wf.Graph.NumData())
	if err != nil {
		return nil, err
	}
	ranks, costs := rankTables(wf, &cfg)
	s := run.addSession(wf, 0, ranks, costs, nil)

	if err := run.eng.Run(); err != nil {
		return nil, fmt.Errorf("runtime: simulation failed: %w", err)
	}
	if run.failErr != nil {
		return nil, run.failErr
	}
	if s.done != wf.Graph.Len() {
		return nil, fmt.Errorf("runtime: %d of %d tasks completed", s.done, wf.Graph.Len())
	}

	res := &SimResult{
		Collector:      s.collector,
		Makespan:       run.eng.Now(),
		SchedDecisions: s.done,
		Engine:         run.eng.Stats(),
	}
	if run.faults != nil {
		run.stats.Episodes = run.faults.Episodes()
		res.Faults = run.stats
	}
	res.CoreUtilization, res.GPUUtilization = run.utilization()
	if a := cfg.Arena; a != nil {
		// The engine is drained; donate its substrate storage and the
		// idle task runs back for the caller's next trial.
		run.eng.Release(&a.nodes)
		run.releaseRuns(a)
		a.queue, a.granted = run.queue, run.granted
	}
	return res, nil
}

// preflightMemory checks every task's footprint at its assigned device
// before any simulation runs, matching how an OOM aborts the paper's real
// executions before useful work completes.
func preflightMemory(wf *Workflow, cfg SimConfig) error {
	for _, t := range wf.Graph.Tasks() {
		spec := wf.Spec(t)
		dev := taskDevice(spec.Profile, cfg.Device)
		if err := cfg.Params.CheckMemory(spec.Profile, dev); err != nil {
			return fmt.Errorf("task %d (%s): %w", t.ID, t.Name, err)
		}
	}
	return nil
}

// taskDevice applies the paper's assignment rule: serial tasks to CPUs;
// partially or fully parallel tasks to GPUs when GPU mode is selected.
func taskDevice(prof costmodel.Profile, mode costmodel.DeviceKind) costmodel.DeviceKind {
	if mode == costmodel.GPU && prof.ParallelOps > 0 {
		return costmodel.GPU
	}
	return costmodel.CPU
}

// session is the state of one submitted workflow instance within a
// (possibly multiplexed) engine: dependency counters, its own metrics
// collector, its slice of the global datum-ID space, and the fault-path
// bookkeeping. A single-workflow run is exactly one session over the
// substrate; a multi-tenant run streams many sessions through it.
type session struct {
	// idx is the session's index in simRun.sessions; refs carry it so the
	// dispatch path finds the owning session without a map.
	idx    int32
	tenant int32
	wf     *Workflow
	// collector receives this workflow's stage records only, so teardown
	// can hand per-workflow metrics back while the cluster keeps running.
	// nil in streaming mode, where records flow to the shared sink instead.
	collector *metrics.Collector
	// sink is where stage records actually land: the session's own
	// collector normally, the run's shared SimConfig.Sink in streaming
	// mode. Never nil while the session runs.
	sink      metrics.Sink
	remaining []int // unmet dependency count per task
	// levelWidth is tasks per DAG level (solo-task thread-speedup rule);
	// shared with the workflow when it is frozen, so read-only.
	levelWidth []int
	// ranks and costs are the per-task lookahead tables the configured
	// policy consumes (HEFT upward ranks / b-levels, and estimated
	// dedicated-resource execution times), computed once per workflow
	// outside engine context (see rankTables) and stamped onto refs at
	// enqueue. nil for policies without lookahead.
	ranks, costs []float64
	// dataBase offsets this workflow's dense datum IDs into the shared
	// storage system's global ID space: workflows intern IDs from 0
	// independently, so co-resident sessions must not collide.
	dataBase  int32
	submitted float64
	finished  float64
	done      int
	ended     bool
	// onDone fires engine-side the instant the session's last task
	// completes; nil for single-workflow runs (RunSim reads the session
	// directly after the engine drains).
	onDone func(*session)

	// Fault-path state, nil when injection is disabled.
	attempts []int32   // transient failures accumulated per task
	doneTask []bool    // completed at least once (lineage may re-run it)
	inFlight []bool    // queued or executing right now
	waiters  [][]int32 // tasks parked on a producer's re-execution

	// counted marks tasks currently holding one unit of their tenant's
	// admission quota; nil outside multi-tenant mode.
	counted []bool
}

// gid maps a workflow-local datum ID into the shared global ID space.
func (s *session) gid(id int32) int32 { return id + s.dataBase }

// fairShare is the multi-tenant dispatch gate: weighted fair-share tenant
// selection at every grant, plus per-tenant admission quotas with
// overflow parking. nil in single-workflow runs, whose dispatch path is
// byte-identical to the pre-multi-tenant runtime.
type fairShare struct {
	weights   []float64
	served    []float64     // grants charged per tenant (stride accounting)
	quota     []int         // max concurrently admitted tasks (0 = unlimited)
	occupancy []int         // admitted (queued or running) tasks per tenant
	overflow  []sched.Queue // refs parked over quota, admitted FIFO on release
}

// pick selects the tenant to dispatch for: the backlogged tenant with the
// lowest served/weight pass, lowest tenant ID on ties (deterministic).
func (m *fairShare) pick(q *sched.Queue) int32 {
	best := int32(-1)
	var bestPass float64
	for t := range m.weights {
		if q.TenantLen(int32(t)) == 0 {
			continue
		}
		if pass := m.served[t] / m.weights[t]; best < 0 || pass < bestPass {
			best, bestPass = int32(t), pass
		}
	}
	if best >= 0 {
		m.served[best]++
	}
	return best
}

// simRun is the cluster substrate of a simulated execution: the engine,
// the built cluster, storage, the scheduler and the dispatch machinery,
// shared by every session it hosts. All fields are touched only from
// engine context (single-threaded), so no locking.
type simRun struct {
	cfg       SimConfig
	params    *costmodel.Params
	eng       *sim.Engine
	clu       *cluster.Cluster
	store     storage.System
	scheduler sched.Scheduler

	queue     sched.Queue
	granted   sched.Queue // refs popped at grant instants, consumed in start order
	view      sched.View  // reused across every placement decision
	requestFn func()      // bound once: Master.Request
	load      []int       // outstanding tasks per node
	slots     [][]uint64  // per-node free-core bitmap (bit set = free)
	inputSlab []sched.DataLoc

	// Task-run pool: idle step machines, reused across dispatches and,
	// through the Arena, across trials. runSlab is the chunk fresh runs
	// are carved from.
	runs    []*taskRun
	runSlab []taskRun

	sessions       []*session
	active         int   // sessions submitted and not yet finished
	pendingSubmits int   // arrival events scheduled but not yet fired
	nextData       int32 // next free global datum ID
	multi          *fairShare

	// Fault-injection state; every field below is nil/zero and untouched
	// in a fault-free run, keeping the hot path allocation-free.
	faults  *faults.Injector
	fcfg    faults.Config
	stats   FaultStats
	stalled sched.Queue // refs dispatched while every node was down
	failErr error       // fatal failure: retry budget exhausted
}

// newSimRun builds the substrate: engine, cluster, storage, scheduler,
// dispatch bindings and (when enabled) the fault injector, scheduled
// before any session's arrivals so the fault event stream matches the
// pre-refactor runtime exactly. The caller applies withDefaults and
// validates first.
func newSimRun(cfg SimConfig, numDataHint int) (*simRun, error) {
	var eng *sim.Engine
	if cfg.Arena != nil {
		eng = sim.NewIn(&cfg.Arena.nodes)
	} else {
		eng = sim.New()
	}
	clu, err := cluster.Build(eng, cfg.Cluster, *cfg.Params)
	if err != nil {
		return nil, err
	}
	store, err := storage.New(cfg.Storage, clu, numDataHint)
	if err != nil {
		return nil, err
	}
	scheduler, err := sched.New(cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	r := &simRun{
		cfg: cfg, params: cfg.Params,
		eng: eng, clu: clu, store: store, scheduler: scheduler,
		slots: make([][]uint64, cfg.Cluster.Nodes),
	}
	if a := cfg.Arena; a != nil {
		r.load = a.grabLoad(cfg.Cluster.Nodes)
		r.inputSlab = a.inputs[:0]
		r.adoptRuns(a)
		r.queue, a.queue = a.queue, sched.Queue{}
		r.granted, a.granted = a.granted, sched.Queue{}
		r.queue.Reset()
		r.granted.Reset()
	} else {
		r.load = make([]int, cfg.Cluster.Nodes)
	}
	r.requestFn = clu.Master.Request
	// The master grant callback pops the ready queue at the exact grant
	// instant and starts a task run once the decision's service time has
	// elapsed. Dispatch requests are plain events, so a ready task holds
	// no task run until the master actually grants it.
	clu.Master.SetOnGrant(r.grantNext)
	// The scheduler view is stable for the whole run: Load and Locate are
	// live references into the run state, so one View serves every
	// placement decision. Speed and XferRate feed the lookahead policies'
	// earliest-finish-time estimates.
	r.view = sched.View{
		NumNodes: cfg.Cluster.Nodes,
		Load:     r.load,
		Locate:   store.Location,
		Speed:    cfg.NodeSpeed,
		XferRate: cfg.Params.NICBandwidth,
	}
	if b, ok := scheduler.(sched.ViewBinder); ok {
		b.BindView(&r.view)
	}
	// Core-occupancy bitmaps: bit i set = physical core i free.
	words := (cfg.Cluster.CoresPerNode + 63) / 64
	for i := range r.slots {
		r.slots[i] = make([]uint64, words)
		for c := 0; c < cfg.Cluster.CoresPerNode; c++ {
			r.slots[i][c/64] |= 1 << (c % 64)
		}
	}

	fcfg := cfg.Faults.WithDefaults()
	if fcfg.Enabled() {
		inj := faults.NewInjector(eng, fcfg, cfg.Cluster.Nodes)
		r.faults = inj
		r.fcfg = fcfg
		// The scheduler sees node up/down state live; placement never
		// targets a down node.
		r.view.Up = inj.UpNodes()
		inj.OnCrash = r.onNodeCrash
		inj.OnRepair = r.onNodeRepair
		inj.Start()
	}
	return r, nil
}

// addSession registers one workflow on the substrate at the current
// virtual instant: allocates its session state and datum-ID range,
// pre-places its input data, and enqueues its dependency-free tasks in
// generation order. Runs engine-side (or before eng.Run for the
// single-workflow case, where the instant is 0). ranks and costs are the
// workflow's precomputed lookahead tables (rankTables) — computed by the
// caller, outside engine context, so the hot path never builds them.
func (r *simRun) addSession(wf *Workflow, tenant int32, ranks, costs []float64, onDone func(*session)) *session {
	s := &session{
		idx: int32(len(r.sessions)), tenant: tenant, wf: wf,
		remaining: r.grabRemaining(wf.Graph.Len()),
		ranks:     ranks,
		costs:     costs,
		dataBase:  r.nextData,
		submitted: r.eng.Now(),
		onDone:    onDone,
	}
	if r.cfg.Sink != nil {
		// Streaming mode: records fold into the shared sink as they are
		// produced; nothing per-task is retained.
		s.sink = r.cfg.Sink
	} else {
		s.collector = metrics.NewCollector()
		s.sink = s.collector
		// Every record buffer append lands in one up-front allocation: the
		// record count is bounded by tasks × stages (faulty runs may append
		// past it; they are not on the allocation-free path anyway).
		s.collector.Grow(wf.Graph.Len() * metrics.NumStages)
	}
	r.nextData += int32(wf.Graph.NumData())
	r.sessions = append(r.sessions, s)
	r.active++
	s.levelWidth = wf.LevelWidths()
	if r.faults != nil {
		s.attempts = make([]int32, wf.Graph.Len())
		s.doneTask = make([]bool, wf.Graph.Len())
		s.inFlight = make([]bool, wf.Graph.Len())
		s.waiters = make([][]int32, wf.Graph.Len())
	}
	if r.multi != nil {
		s.counted = make([]bool, wf.Graph.Len())
	}

	// Pre-place workflow input data: shared storage registers the keys;
	// local disks receive blocks round-robin across nodes, the balanced
	// initial distribution a data-aware loader would produce. Keys are
	// placed largest-first so the dataset blocks land evenly and small
	// broadcast data (e.g. K-means centers) doesn't skew the rotation.
	inputs := wf.InputIDs()
	sort.SliceStable(inputs, func(i, j int) bool {
		return wf.SizeByID(inputs[i]) > wf.SizeByID(inputs[j])
	})
	for i, id := range inputs {
		r.store.Place(s.gid(id), i%r.cfg.Cluster.Nodes)
	}

	// Seed the ready queue with dependency-free tasks in generation order.
	for _, t := range wf.Graph.Tasks() {
		s.remaining[t.ID] = len(t.Deps())
	}
	for _, t := range wf.Graph.Tasks() {
		if s.remaining[t.ID] == 0 {
			r.enqueue(s, t)
		}
	}
	return s
}

// finishSession runs once when a session's last task completes: stamps
// the finish instant, fires the teardown callback with the session still
// intact, and stops the fault injector once nothing is left to run
// (pending fault events would otherwise keep the virtual clock alive
// forever).
func (r *simRun) finishSession(s *session) {
	if s.ended {
		return
	}
	s.ended = true
	s.finished = r.eng.Now()
	r.active--
	if s.onDone != nil {
		s.onDone(s)
	}
	if r.faults != nil && r.active == 0 && r.pendingSubmits == 0 {
		r.faults.Stop()
	}
}

// utilization returns the cluster's mean core and GPU busy fractions over
// the elapsed virtual time.
func (r *simRun) utilization() (core, gpu float64) {
	if r.eng.Now() <= 0 {
		return 0, 0
	}
	var coreBusy, gpuBusy float64
	for _, n := range r.clu.Nodes {
		coreBusy += n.Cores.BusyTime()
		gpuBusy += n.GPUs.BusyTime()
	}
	core = coreBusy / (float64(r.cfg.Cluster.TotalCores()) * r.eng.Now())
	if r.cfg.Cluster.TotalGPUs() > 0 {
		gpu = gpuBusy / (float64(r.cfg.Cluster.TotalGPUs()) * r.eng.Now())
	}
	return core, gpu
}

// acquireSlot returns the lowest free core index on a node, so repeated
// waves reuse the same physical cores — required for the paper's per-core
// (de)serialization aggregation to be meaningful. The free set is a
// bitmap, so the "lowest free" scan is a trailing-zeros instruction per
// 64 cores instead of a linear walk over booleans.
func (r *simRun) acquireSlot(node int) int {
	for w, word := range r.slots[node] {
		if word != 0 {
			bit := bits.TrailingZeros64(word)
			r.slots[node][w] = word &^ (1 << bit)
			return w*64 + bit
		}
	}
	// Fatal invariant violation: formats once, then the run dies.
	//wfsimlint:allow hotalloc
	panic(fmt.Sprintf("runtime: no free core slot on node %d despite server grant", node))
}

// releaseSlot returns a core to the node's free set.
func (r *simRun) releaseSlot(node, slot int) {
	r.slots[node][slot/64] |= 1 << (slot % 64)
}

// grabRemaining returns zeroed dependency counters for one session. The
// arena's recycled buffer serves the single-session path only: co-resident
// multi-tenant sessions each need their own backing, so any session after
// the first (and every session under a fair-share gate) allocates.
func (r *simRun) grabRemaining(n int) []int {
	if a := r.cfg.Arena; a != nil && r.multi == nil && len(r.sessions) == 0 {
		return a.grabRemaining(n)
	}
	return make([]int, n)
}

// borrowInputs returns a zero-length DataLoc slice with capacity n, carved
// from a slab so each ready task's input list is not an individual
// allocation. Slices are never returned: the total input-list footprint of
// a run is a few entries per task, so the slabs cost tens of kilobytes
// where per-task allocations cost one heap object each. Slabs grow
// geometrically so a million-task run fills O(log n) of them, and the
// biggest one is what an arena retains for the next trial.
func (r *simRun) borrowInputs(n int) []sched.DataLoc {
	if cap(r.inputSlab)-len(r.inputSlab) < n {
		c := 2 * cap(r.inputSlab)
		if c < 1024 {
			c = 1024
		}
		if c < n {
			c = n
		}
		slab := make([]sched.DataLoc, 0, c)
		if a := r.cfg.Arena; a != nil && cap(slab) > cap(a.inputs) {
			a.inputs = slab
		}
		r.inputSlab = slab
	}
	k := len(r.inputSlab)
	s := r.inputSlab[k : k : k+n]
	r.inputSlab = r.inputSlab[:k+n]
	return s
}

// enqueue registers a ready task and files a dispatch request with the
// master. The request is a zero-delay engine event, and no task run exists
// until the master grants the request (grantNext). The enqueue instant rides with the ref so queue
// disciplines that reorder dispatch still attribute the correct wait.
//
// In multi-tenant mode the tenant's admission quota is enforced here, not
// at the grant: a ref over quota parks in the tenant's overflow queue and
// files no request, preserving the one-request-per-queued-ref invariant
// the dispatch gate panics on. Re-enqueues of an admitted task (retries,
// crash re-queues, lineage waiters) bypass the quota — the task already
// holds its unit.
func (r *simRun) enqueue(s *session, t *dag.Task) {
	if r.failErr != nil {
		return // fatal failure: the run is draining, nothing new starts
	}
	ref := sched.TaskRef{
		ID: t.ID, Name: t.Name, Enqueued: r.eng.Now(),
		Tenant: s.tenant, Session: s.idx,
	}
	// Lookahead policies read precomputed tables off the ref; stamping is
	// a slice index, so the enqueue path stays allocation-free.
	if s.ranks != nil {
		ref.Rank = s.ranks[t.ID]
	}
	if s.costs != nil {
		ref.Cost = s.costs[t.ID]
	}
	nReads := 0
	for _, p := range t.Params {
		if p.Reads() {
			nReads++
		}
	}
	if nReads > 0 {
		ids := t.DataIDs()
		ref.Inputs = r.borrowInputs(nReads)
		for i, p := range t.Params {
			if p.Reads() {
				id := ids[i]
				ref.Inputs = append(ref.Inputs,
					sched.DataLoc{ID: s.gid(id), Bytes: s.wf.SizeByID(id)})
			}
		}
	}
	if s.inFlight != nil {
		s.inFlight[t.ID] = true
	}
	if m := r.multi; m != nil && !s.counted[t.ID] {
		if q := m.quota[s.tenant]; q > 0 && m.occupancy[s.tenant] >= q {
			m.overflow[s.tenant].Push(ref)
			return
		}
		s.counted[t.ID] = true
		m.occupancy[s.tenant]++
	}
	r.queue.Push(ref)
	r.eng.Schedule(0, r.requestFn)
}

// releaseQuota returns a completed task's admission unit to its tenant
// and admits parked refs while the tenant is back under quota. Keyed on
// counted, not on completion alone, so a lineage re-execution of an
// already-completed producer balances its own re-admission exactly.
func (r *simRun) releaseQuota(s *session, taskID int) {
	m := r.multi
	if m == nil || !s.counted[taskID] {
		return
	}
	s.counted[taskID] = false
	m.occupancy[s.tenant]--
	q := m.quota[s.tenant]
	for m.overflow[s.tenant].Len() > 0 && (q <= 0 || m.occupancy[s.tenant] < q) {
		ref, _ := m.overflow[s.tenant].PopFront()
		os := r.sessions[ref.Session]
		os.counted[ref.ID] = true
		m.occupancy[s.tenant]++
		r.queue.Push(ref)
		r.eng.Schedule(0, r.requestFn)
	}
}

// grantNext runs engine-side at the instant the master is granted to the
// oldest outstanding dispatch request: it pops the policy's pick from the
// ready queue — the task actually dispatched is whichever the policy
// selects at this exact instant — and starts a task run once the policy's
// decision time has elapsed. The master stays held until that run places
// the task and calls End.
//
// In multi-tenant mode the fair-share gate picks the tenant first, then
// the policy picks within that tenant's refs; single-workflow runs take
// the policy's pick directly, byte-identical to the pre-tenant runtime.
func (r *simRun) grantNext() {
	// The decision is priced at the queue depth the master actually
	// scanned: the per-rank term of the overhead model sees the ready set
	// as it was before the pick.
	qlen := r.queue.Len()
	var ref sched.TaskRef
	var ok bool
	if m := r.multi; m != nil {
		ref, ok = r.scheduler.NextFor(&r.queue, m.pick(&r.queue))
	} else {
		ref, ok = r.scheduler.Next(&r.queue)
	}
	if !ok {
		// Cannot happen: one request per queued ref.
		panic("runtime: ready queue empty at dispatch")
	}
	r.granted.Push(ref)
	r.eng.Start(&r.getRun().act, r.scheduler.Overhead(r.params, qlen, r.cfg.Cluster.Nodes))
}

// completeTask runs the completion bookkeeping for a successful attempt:
// successor release on first completion, lineage-waiter wake-up on every
// completion, quota return and session teardown when the workflow's last
// task finishes.
func (r *simRun) completeTask(s *session, task *dag.Task) {
	r.releaseQuota(s, task.ID)
	if r.faults == nil {
		s.done++
		for _, succ := range task.Succs() {
			s.remaining[succ]--
			if s.remaining[succ] == 0 {
				r.enqueue(s, s.wf.Graph.Task(succ))
			}
		}
		if s.done == s.wf.Graph.Len() {
			r.finishSession(s)
		}
		return
	}
	s.inFlight[task.ID] = false
	if !s.doneTask[task.ID] {
		s.doneTask[task.ID] = true
		s.done++
		for _, succ := range task.Succs() {
			s.remaining[succ]--
			if s.remaining[succ] == 0 {
				r.enqueue(s, s.wf.Graph.Task(succ))
			}
		}
	}
	if ws := s.waiters[task.ID]; len(ws) > 0 {
		s.waiters[task.ID] = ws[:0]
		for _, w := range ws {
			r.enqueue(s, s.wf.Graph.Task(int(w)))
		}
	}
	if s.done == s.wf.Graph.Len() {
		r.finishSession(s)
	}
}

// ErrOOM reports whether err is a memory-capacity error (either kind).
func ErrOOM(err error) bool {
	return errors.Is(err, costmodel.ErrGPUOOM) || errors.Is(err, costmodel.ErrHostOOM)
}
