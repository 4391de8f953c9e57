package runtime

import (
	"errors"
	"fmt"

	"wfsim/internal/metrics"
	"wfsim/internal/sched"
	"wfsim/internal/sim"
)

// TenantSpec configures one workload stream sharing the cluster.
type TenantSpec struct {
	// Weight is the tenant's share at the dispatch gate: grants are
	// apportioned proportionally to weights among backlogged tenants
	// (stride-style fair share). Non-positive means 1.
	Weight float64
	// Quota caps the tenant's concurrently admitted tasks (queued or
	// running); tasks over quota park at admission until a slot frees.
	// Zero or negative means unlimited.
	Quota int
}

// WorkflowResult is the per-workflow outcome a multi-tenant run hands
// back at session teardown, while the cluster keeps serving other
// sessions.
type WorkflowResult struct {
	// Tenant and Session identify the workflow instance: Tenant is the
	// index into the NewClusterSim tenant list, Session the global
	// submission index.
	Tenant  int
	Session int
	// Submitted and Finished are the workflow's arrival and completion
	// instants on the shared virtual clock; Finished − Submitted is its
	// response time.
	Submitted float64
	Finished  float64
	// Tasks is the workflow's task count.
	Tasks int
	// Collector holds the workflow's own stage records. The callback owns
	// it: the runtime drops its reference at teardown so a long arrival
	// stream does not accumulate O(total-tasks) record memory.
	Collector *metrics.Collector
}

// ClusterSim is one shared simulated cluster serving a stream of
// workflows from multiple tenants: the multi-tenant generalization of
// RunSim. Construct with NewClusterSim, register arrivals with Submit,
// then Run drives the virtual clock until every submitted workflow has
// finished.
type ClusterSim struct {
	run         *simRun
	tenants     []TenantSpec
	submissions int
	ran         bool
}

// NewClusterSim builds a shared cluster for the given tenants. The
// config is validated exactly like RunSim's; at least one tenant is
// required.
func NewClusterSim(cfg SimConfig, tenants []TenantSpec) (*ClusterSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(tenants) == 0 {
		return nil, errors.New("runtime: NewClusterSim needs at least one tenant")
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
	run, err := newSimRun(cfg, 0)
	if err != nil {
		return nil, err
	}
	m := &fairShare{
		weights:   make([]float64, len(tenants)),
		served:    make([]float64, len(tenants)),
		quota:     make([]int, len(tenants)),
		occupancy: make([]int, len(tenants)),
		overflow:  make([]sched.Queue, len(tenants)),
	}
	for i, t := range tenants {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		m.weights[i] = w
		if t.Quota > 0 {
			m.quota[i] = t.Quota
		}
	}
	run.multi = m
	return &ClusterSim{run: run, tenants: tenants}, nil
}

// Submit registers one workflow arrival for a tenant at virtual instant
// at (relative to the shared clock's origin). The workflow is validated
// and memory-preflighted immediately; its session is created when the
// clock reaches the arrival instant. onDone (optional) fires engine-side
// at the workflow's completion instant — while other sessions keep
// running — and receives the per-workflow result. Submissions must
// precede Run.
func (c *ClusterSim) Submit(tenant int, wf *Workflow, at float64, onDone func(WorkflowResult)) error {
	if c.ran {
		return errors.New("runtime: Submit after Run")
	}
	if tenant < 0 || tenant >= len(c.tenants) {
		return fmt.Errorf("runtime: tenant %d out of range [0, %d)", tenant, len(c.tenants))
	}
	if at < 0 {
		return fmt.Errorf("runtime: negative arrival instant %v", at)
	}
	if !wf.Frozen() { // Freeze already validated a frozen workflow
		if err := wf.Validate(); err != nil {
			return err
		}
	}
	if err := preflightMemory(wf, c.run.cfg); err != nil {
		return err
	}
	c.submissions++
	r := c.run
	// Lookahead tables are built at submission time, outside engine
	// context: the arrival event only registers the session, keeping the
	// engine-side path free of DAG walks and allocations.
	ranks, costs := rankTables(wf, &r.cfg)
	r.pendingSubmits++
	r.eng.Schedule(at, func() {
		r.pendingSubmits--
		r.addSession(wf, int32(tenant), ranks, costs, func(s *session) {
			if onDone != nil {
				onDone(WorkflowResult{
					Tenant: int(s.tenant), Session: int(s.idx),
					Submitted: s.submitted, Finished: s.finished,
					Tasks: s.wf.Graph.Len(), Collector: s.collector,
				})
			}
			// Release the session's per-task state; the callback owns
			// whatever it kept. The session header (indices, instants)
			// stays for accounting.
			s.wf, s.collector, s.sink = nil, nil, nil
			s.remaining, s.levelWidth = nil, nil
			s.ranks, s.costs = nil, nil
			s.attempts, s.doneTask, s.inFlight, s.waiters, s.counted = nil, nil, nil, nil, nil
		})
	})
	return nil
}

// Run drives the shared virtual clock until every submitted workflow has
// completed (per-workflow results stream through the Submit callbacks).
// It returns the first fatal error — a simulation failure or a task that
// exhausted its retry budget under fault injection.
func (c *ClusterSim) Run() error {
	if c.ran {
		return errors.New("runtime: ClusterSim.Run called twice")
	}
	if c.submissions == 0 {
		return errors.New("runtime: ClusterSim.Run with no submitted workflows")
	}
	c.ran = true
	r := c.run
	if err := r.eng.Run(); err != nil {
		return fmt.Errorf("runtime: simulation failed: %w", err)
	}
	if r.failErr != nil {
		return r.failErr
	}
	if r.active != 0 || r.pendingSubmits != 0 {
		return fmt.Errorf("runtime: %d workflows unfinished at engine drain",
			r.active+r.pendingSubmits)
	}
	return nil
}

// Now returns the shared virtual clock (after Run: the horizon — the
// completion instant of the last workflow).
func (c *ClusterSim) Now() float64 { return c.run.eng.Now() }

// Utilization returns the cluster's mean core and GPU busy fractions
// over the elapsed virtual time.
func (c *ClusterSim) Utilization() (core, gpu float64) { return c.run.utilization() }

// EngineStats reports the discrete-event engine's counters for the shared
// clock: events dispatched, fast-path waits, zero-delay ring hits, peak
// pending.
func (c *ClusterSim) EngineStats() sim.Stats { return c.run.eng.Stats() }

// FaultStats reports failure-injection activity across every session
// (zero when injection is disabled).
func (c *ClusterSim) FaultStats() FaultStats {
	stats := c.run.stats
	if c.run.faults != nil {
		stats.Episodes = c.run.faults.Episodes()
	}
	return stats
}
