package experiments

import (
	"context"
	"testing"

	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/runner"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

// TestRunCellsSharedWorkflowsMatchFreshBuilds: a batch whose cells repeat
// two workflow keys across every execution factor, on a 2-worker engine
// that shares one frozen build per key between concurrent trials, returns
// exactly the cells a fresh build per cell (RunCell) produces.
func TestRunCellsSharedWorkflowsMatchFreshBuilds(t *testing.T) {
	var cfgs []CellConfig
	for _, base := range []CellConfig{
		{Algorithm: KMeans, Dataset: dataset.KMeansSmall, Grid: 32, Clusters: 10, Iterations: 2},
		{Algorithm: Matmul, Dataset: dataset.MatmulSmall, Grid: 4},
	} {
		for _, dev := range []costmodel.DeviceKind{costmodel.CPU, costmodel.GPU} {
			for _, arch := range []storage.Architecture{storage.Shared, storage.Local} {
				for _, pol := range []sched.Policy{sched.FIFO, sched.Locality, sched.HEFT} {
					cfg := base
					cfg.Device, cfg.Storage, cfg.Policy = dev, arch, pol
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	eng := runner.New(2)
	got, err := RunCells(context.Background(), eng, "shared", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := RunCell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("cell %d (%v %v %v %v): shared-workflow cell differs from a fresh build\n got %+v\nwant %+v",
				i, cfg.Algorithm, cfg.Device, cfg.Storage, cfg.Policy, got[i], want)
		}
	}
	if st := eng.Stats(); st.WorkflowBuilds != 2 || st.WorkflowReuses != len(cfgs)-2 {
		t.Errorf("engine built %d and reused %d workflows, want 2 and %d",
			st.WorkflowBuilds, st.WorkflowReuses, len(cfgs)-2)
	}
}

// TestFullPassWorkflowCounts pins how many workflows a full pass builds
// and shares: every experiment except fig9b (which runs real kernels and
// builds outside the table) on one fresh engine. The counts depend only on
// the trial set — each distinct memo key runs once, and the table never
// evicts within a pass — so 1 and 2 workers must agree exactly.
func TestFullPassWorkflowCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	const wantBuilds, wantReuses = 70, 690
	for _, workers := range []int{1, 2} {
		eng := runner.New(workers)
		for _, e := range All() {
			if e.ID == "fig9b" {
				continue
			}
			if _, err := e.Run(context.Background(), eng); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
		}
		st := eng.Stats()
		if st.WorkflowBuilds != wantBuilds || st.WorkflowReuses != wantReuses {
			t.Errorf("-j %d: %d workflows built, %d reused; want %d and %d",
				workers, st.WorkflowBuilds, st.WorkflowReuses, wantBuilds, wantReuses)
		}
	}
}
