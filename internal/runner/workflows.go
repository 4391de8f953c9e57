package runner

import (
	"context"
	"sync"

	"wfsim/internal/runtime"
)

// workflowBudget bounds the tasks an engine's workflow table retains.
// Every experiment except fig9b (the `wfsim run all` working set; fig9b
// runs real kernels and builds outside the table) needs 70 distinct
// workflows totalling 46,202 tasks, the largest 7,936. 1<<17 = 131,072
// tasks holds all of them with ~2.8× headroom, so a sweep never rebuilds,
// while a long-lived `wfsim serve` stays bounded whatever its request
// mix. A frozen K-means or Matmul workflow holds about 500 bytes per
// task, so the budget caps retention near 64 MB.
const workflowBudget = 1 << 17

// workflowTable is an engine's single-flight table of built, frozen
// workflows, keyed by the builder's own config value. It lives as long as
// the engine. Retention is bounded by a task budget with oldest-first
// eviction; a workflow larger than the whole budget is built and handed
// out but never retained.
type workflowTable struct {
	budget int

	mu      sync.Mutex
	entries map[any]*workflowEntry
	// retained lists the finished entries still in entries, oldest first;
	// tasks is their total task count.
	retained []*workflowEntry
	tasks    int
	builds   int
	reuses   int
}

type workflowEntry struct {
	key  any
	done chan struct{} // closed once wf/err are set
	wf   *runtime.Workflow
	err  error
}

func newWorkflowTable(budget int) *workflowTable {
	return &workflowTable{budget: budget, entries: map[any]*workflowEntry{}}
}

// Workflow returns the workflow build(cfg) constructs. Inside an engine
// trial it comes from the engine's workflow table, which the trial reaches
// through its worker slot (WorkerSlot): the first request for
// cfg builds and freezes it (runtime.Workflow.Freeze), and every later or
// concurrent request for an equal cfg shares that one read-only
// instance. Outside a trial (plain contexts, tests) it simply calls
// build, and the workflow is not frozen.
//
// cfg is the table key, so it must capture every build input, and a
// config type must always be paired with the same build function:
// passing the builder's own config (kmeans.Config with kmeans.Build,
// matmul.Config with matmul.Build) satisfies both.
func Workflow[C comparable](ctx context.Context, cfg C, build func(C) (*runtime.Workflow, error)) (*runtime.Workflow, error) {
	slot := WorkerSlot(ctx)
	if slot == nil {
		return build(cfg)
	}
	return slot.workflows.get(ctx, cfg, func() (*runtime.Workflow, error) { return build(cfg) })
}

// get serves key from the table, running build at most once per retained
// key; waiters give up when ctx is cancelled.
func (t *workflowTable) get(ctx context.Context, key any, build func() (*runtime.Workflow, error)) (*runtime.Workflow, error) {
	t.mu.Lock()
	ent, found := t.entries[key]
	if !found {
		ent = &workflowEntry{key: key, done: make(chan struct{})}
		t.entries[key] = ent
		t.builds++
	}
	t.mu.Unlock()

	if found {
		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if ent.err == nil {
			t.mu.Lock()
			t.reuses++
			t.mu.Unlock()
		}
		return ent.wf, ent.err
	}

	ent.wf, ent.err = build()
	if ent.err == nil {
		ent.err = ent.wf.Freeze()
	}
	if ent.err != nil {
		ent.wf = nil
	}
	t.mu.Lock()
	t.retain(ent)
	t.mu.Unlock()
	close(ent.done)
	return ent.wf, ent.err
}

// retain keeps a finished entry within the budget, evicting the oldest
// retained entries to make room. Failed builds and workflows larger than
// the whole budget are dropped, so the next request builds again.
// Callers hold t.mu.
func (t *workflowTable) retain(ent *workflowEntry) {
	if ent.err != nil || ent.wf.Graph.Len() > t.budget {
		delete(t.entries, ent.key)
		return
	}
	t.retained = append(t.retained, ent)
	t.tasks += ent.wf.Graph.Len()
	for t.tasks > t.budget {
		old := t.retained[0]
		t.retained[0] = nil
		t.retained = t.retained[1:]
		t.tasks -= old.wf.Graph.Len()
		delete(t.entries, old.key)
	}
}

// counts returns the builds run and the requests served by sharing.
func (t *workflowTable) counts() (builds, reuses int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.builds, t.reuses
}
