package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	wfruntime "wfsim/internal/runtime"
)

// fanConfig is a test builder config: n independent tasks, optionally
// tagged so equal-sized configs are distinct keys.
type fanConfig struct {
	n   int
	tag string
}

// countingBuild returns a builder for fanConfig that counts its calls.
func countingBuild(calls *atomic.Int64) func(fanConfig) (*wfruntime.Workflow, error) {
	return func(c fanConfig) (*wfruntime.Workflow, error) {
		calls.Add(1)
		wf := wfruntime.NewWorkflow("fan" + c.tag)
		prof := costmodel.Profile{Kernel: costmodel.KernelGeneric, SerialOps: 1}
		for i := 0; i < c.n; i++ {
			out := fmt.Sprintf("out%d", i)
			wf.SetSize(out, 1)
			wf.AddTask("work", wfruntime.TaskSpec{Profile: prof}, dag.Param{Data: out, Dir: dag.Out})
		}
		return wf, nil
	}
}

func tableCtx(t *workflowTable) context.Context {
	return context.WithValue(context.Background(), slotCtxKey{}, &Slot{workflows: t})
}

func TestWorkflowOutsideTrialBuildsFresh(t *testing.T) {
	var calls atomic.Int64
	build := countingBuild(&calls)
	a, err := Workflow(context.Background(), fanConfig{n: 3}, build)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Workflow(context.Background(), fanConfig{n: 3}, build)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || calls.Load() != 2 {
		t.Fatalf("outside a trial: %d builds, shared=%v; want 2 fresh builds", calls.Load(), a == b)
	}
	if a.Frozen() {
		t.Fatal("a workflow built outside a trial was frozen")
	}
}

// TestWorkflowSingleFlight: concurrent requests for one key run the build
// once and all receive the same frozen workflow.
func TestWorkflowSingleFlight(t *testing.T) {
	var calls atomic.Int64
	build := countingBuild(&calls)
	tab := newWorkflowTable(workflowBudget)
	ctx := tableCtx(tab)
	const n = 16
	got := make([]*wfruntime.Workflow, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			wf, err := Workflow(ctx, fanConfig{n: 5}, build)
			if err != nil {
				t.Error(err)
			}
			got[i] = wf
		}()
	}
	close(start)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("%d concurrent requests ran the build %d times, want 1", n, calls.Load())
	}
	for i, wf := range got {
		if wf != got[0] || !wf.Frozen() {
			t.Fatalf("request %d got %p (frozen=%v), want the shared frozen %p", i, wf, wf.Frozen(), got[0])
		}
	}
	if b, r := tab.counts(); b != 1 || r != n-1 {
		t.Fatalf("counts = %d builds, %d reuses; want 1, %d", b, r, n-1)
	}
}

// TestWorkflowBudget: retention is bounded by the task budget, the oldest
// entry is evicted first, and a workflow over the whole budget is used but
// never retained.
func TestWorkflowBudget(t *testing.T) {
	var calls atomic.Int64
	build := countingBuild(&calls)
	tab := newWorkflowTable(10)
	ctx := tableCtx(tab)
	get := func(c fanConfig) *wfruntime.Workflow {
		t.Helper()
		wf, err := Workflow(ctx, c, build)
		if err != nil {
			t.Fatal(err)
		}
		return wf
	}
	a, b := fanConfig{4, "a"}, fanConfig{4, "b"}
	get(a)
	get(b)
	get(a) // hit: 8 of 10 tasks retained
	if calls.Load() != 2 {
		t.Fatalf("%d builds before eviction, want 2", calls.Load())
	}
	get(fanConfig{4, "c"}) // 12 > 10: evicts a, the oldest
	if _, ok := tab.entries[a]; ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := tab.entries[b]; !ok {
		t.Error("second-oldest entry evicted too")
	}
	if tab.tasks != 8 {
		t.Errorf("retained %d tasks, want 8", tab.tasks)
	}

	calls.Store(0)
	huge := fanConfig{11, "huge"}
	w1, w2 := get(huge), get(huge)
	if calls.Load() != 2 || w1 == w2 {
		t.Errorf("over-budget workflow: %d builds, shared=%v; want 2 unshared builds", calls.Load(), w1 == w2)
	}
	if !w1.Frozen() {
		t.Error("over-budget workflow handed out unfrozen")
	}
	if _, ok := tab.entries[huge]; ok {
		t.Error("over-budget workflow retained")
	}
	if tab.tasks != 8 || len(tab.retained) != 2 {
		t.Errorf("over-budget workflow disturbed retention: %d tasks in %d entries", tab.tasks, len(tab.retained))
	}
}

func TestWorkflowBuildErrorNotRetained(t *testing.T) {
	tab := newWorkflowTable(workflowBudget)
	ctx := tableCtx(tab)
	calls := 0
	build := func(int) (*wfruntime.Workflow, error) {
		calls++
		wf := wfruntime.NewWorkflow("unsized")
		wf.AddTask("t", wfruntime.TaskSpec{}, dag.Param{Data: "x", Dir: dag.Out})
		return wf, nil // Freeze rejects it: datum x has no size
	}
	for range 2 {
		if wf, err := Workflow(ctx, 1, build); err == nil || wf != nil {
			t.Fatalf("invalid workflow: got %v, %v; want a Freeze error", wf, err)
		}
	}
	if calls != 2 || len(tab.entries) != 0 {
		t.Fatalf("failed build: %d calls, %d entries; want 2 calls, none retained", calls, len(tab.entries))
	}
}

// TestEngineSharesWorkflowsAcrossTrials: trials of one engine reach its
// table through their context, and the counts show up in Stats.
func TestEngineSharesWorkflowsAcrossTrials(t *testing.T) {
	var calls atomic.Int64
	build := countingBuild(&calls)
	e := New(2)
	trials := trialSet(6, func(i int) Trial {
		return Trial{ID: fmt.Sprint(i), Run: func(ctx context.Context) (any, error) {
			wf, err := Workflow(ctx, fanConfig{n: 2 + i%2}, build)
			if err != nil {
				return nil, err
			}
			return wf.Graph.Len(), nil
		}}
	})
	rep, err := e.Run(context.Background(), trials)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range rep.Outcomes {
		if o.Value.(int) != 2+i%2 {
			t.Fatalf("trial %d got a %d-task workflow, want %d", i, o.Value, 2+i%2)
		}
	}
	st := e.Stats()
	if st.WorkflowBuilds != 2 || st.WorkflowReuses != 4 || calls.Load() != 2 {
		t.Fatalf("stats %d builds / %d reuses (%d build calls), want 2 / 4", st.WorkflowBuilds, st.WorkflowReuses, calls.Load())
	}
}
