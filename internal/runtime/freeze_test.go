package runtime

import (
	"slices"
	"strings"
	"testing"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

// mustPanic runs fn and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

func TestFreezeMakesWorkflowImmutable(t *testing.T) {
	wf := gridWorkflow(3, 4, testProf)
	if err := wf.Freeze(); err != nil {
		t.Fatal(err)
	}
	if !wf.Frozen() {
		t.Fatal("Freeze did not mark the workflow frozen")
	}
	if err := wf.Freeze(); err != nil {
		t.Fatalf("second Freeze: %v", err)
	}
	mustPanic(t, "frozen", func() {
		wf.AddTask("late", TaskSpec{Profile: testProf}, dag.Param{Data: "x0_0", Dir: dag.In})
	})
	mustPanic(t, "frozen", func() { wf.SetSize("x0_0", 1) })
	mustPanic(t, "frozen", func() { wf.SetSize("new", 1) })
	mustPanic(t, "frozen", func() {
		wf.SetInput("new", dataset.NewBlock(dataset.BlockID{}, 1, 1))
	})
	mustPanic(t, "frozen", func() { wf.Graph.Add("late", nil) })
	if n := wf.Graph.Len(); n != 12 {
		t.Fatalf("frozen workflow grew to %d tasks", n)
	}
}

func TestFreezeRejectsInvalidWorkflow(t *testing.T) {
	wf := NewWorkflow("unsized")
	wf.AddTask("t", TaskSpec{Profile: testProf}, dag.Param{Data: "x", Dir: dag.Out})
	if err := wf.Freeze(); err == nil || !strings.Contains(err.Error(), "without declared size") {
		t.Fatalf("Freeze of an unsized workflow: %v", err)
	}
	if wf.Frozen() {
		t.Fatal("a workflow that failed validation was frozen")
	}
}

func TestLevelWidthsFrozenAndUnfrozen(t *testing.T) {
	wf := gridWorkflow(3, 4, testProf)
	wf.AddTask("sink", TaskSpec{Profile: testProf}, dag.Param{Data: "x2_0", Dir: dag.In})
	want := []int{4, 4, 4, 1}
	if got := wf.LevelWidths(); !slices.Equal(got, want) {
		t.Fatalf("unfrozen LevelWidths = %v, want %v", got, want)
	}
	if err := wf.Freeze(); err != nil {
		t.Fatal(err)
	}
	if got := wf.LevelWidths(); !slices.Equal(got, want) {
		t.Fatalf("frozen LevelWidths = %v, want %v", got, want)
	}
}

// TestFrozenWorkflowRunsIdentically pins that sharing is invisible to a
// single run: a frozen workflow simulates to the same trace as a freshly
// built one, on every policy.
func TestFrozenWorkflowRunsIdentically(t *testing.T) {
	frozen := gridWorkflow(4, 16, testProf)
	if err := frozen.Freeze(); err != nil {
		t.Fatal(err)
	}
	for _, pol := range sched.Policies() {
		cfg := SimConfig{Device: costmodel.GPU, Policy: pol, Storage: storage.Local, Seed: 7}
		ref, err := RunSim(gridWorkflow(4, 16, testProf), cfg)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		got, err := RunSim(frozen, cfg)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if got.Makespan != ref.Makespan || traceCSV(t, got.Collector) != traceCSV(t, ref.Collector) {
			t.Errorf("%v: frozen workflow's run diverges from a fresh build", pol)
		}
	}
}

// TestClusterSimSharedFrozenWorkflow is ext5's pattern: one frozen
// workflow submitted for several arrivals must produce the per-workflow
// results and traces that separately built copies produce.
func TestClusterSimSharedFrozenWorkflow(t *testing.T) {
	shared := gridWorkflow(3, 8, testProf)
	if err := shared.Freeze(); err != nil {
		t.Fatal(err)
	}
	run := func(wf func() *Workflow) ([]WorkflowResult, []string) {
		cfg := SimConfig{
			Cluster: cluster.Spec{Name: "mini", Nodes: 2, CoresPerNode: 4, GPUsPerNode: 2},
			Device:  costmodel.GPU, Policy: sched.Locality, Storage: storage.Local,
		}
		cs, err := NewClusterSim(cfg, []TenantSpec{{Weight: 2}, {Weight: 1}})
		if err != nil {
			t.Fatal(err)
		}
		results := make([]WorkflowResult, 2)
		traces := make([]string, 2)
		for k := range 2 {
			err := cs.Submit(k, wf(), 0.25*float64(k), func(r WorkflowResult) {
				traces[r.Session] = traceCSV(t, r.Collector)
				r.Collector = nil
				results[r.Session] = r
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := cs.Run(); err != nil {
			t.Fatal(err)
		}
		return results, traces
	}
	wantRes, wantTr := run(func() *Workflow { return gridWorkflow(3, 8, testProf) })
	gotRes, gotTr := run(func() *Workflow { return shared })
	if !slices.Equal(gotRes, wantRes) {
		t.Errorf("shared workflow results %+v, separate copies %+v", gotRes, wantRes)
	}
	if !slices.Equal(gotTr, wantTr) {
		t.Error("shared workflow traces diverge from separately built copies")
	}
}
