package experiments

import (
	"context"
	"fmt"
	"strings"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/resultcache"
	"wfsim/internal/runner"
	"wfsim/internal/runtime"
	"wfsim/internal/sched"
	"wfsim/internal/tables"
)

// Ext3Row is one (straggler severity × policy) measurement.
type Ext3Row struct {
	Policy      sched.Policy
	SlowFactor  float64 // 1.0 = uniform cluster
	MakespanCPU float64
	CoreUtil    float64
}

// Ext3Result probes the paper's "resource wastage" challenge (§1,
// challenge ii) beyond its uniform testbed: one node is slowed to a
// fraction of nominal speed and the scheduling policies face the resulting
// load imbalance. Load-aware placement (both policies use outstanding-task
// counts) bounds the damage: the makespan grows far less than the
// straggler's slowdown, and utilization reveals the wasted capacity the
// paper's motivation describes.
type Ext3Result struct {
	Rows []Ext3Row
}

// ext3Spec is one (straggler severity × policy) trial configuration.
type ext3Spec struct {
	slow float64
	pol  sched.Policy
}

func runExt3(ctx context.Context, eng *runner.Engine) (Result, error) {
	spec := cluster.Minotauro()
	var specs []ext3Spec
	for _, slow := range []float64{1.0, 0.5, 0.25} {
		for _, pol := range []sched.Policy{sched.FIFO, sched.Locality} {
			specs = append(specs, ext3Spec{slow: slow, pol: pol})
		}
	}
	rows, err := runner.Map(ctx, eng, "ext3", specs,
		func(s ext3Spec) string { return resultcache.KeyOf("ext3", s.slow, int(s.pol)).Hex() },
		func(ctx context.Context, s ext3Spec) (Ext3Row, error) {
			speeds := make([]float64, spec.Nodes)
			for i := range speeds {
				speeds[i] = 1
			}
			speeds[0] = s.slow
			wf, err := runner.Workflow(ctx, kmeans.Config{
				Dataset: dataset.KMeansSmall, Grid: 128, Clusters: 10,
			}, kmeans.Build)
			if err != nil {
				return Ext3Row{}, err
			}
			res, err := runtime.RunSim(wf, runtime.SimConfig{
				Device:    costmodel.CPU,
				Policy:    s.pol,
				NodeSpeed: speeds,
			})
			if err != nil {
				return Ext3Row{}, err
			}
			return Ext3Row{
				Policy: s.pol, SlowFactor: s.slow,
				MakespanCPU: res.Makespan, CoreUtil: res.CoreUtilization,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &Ext3Result{Rows: rows}, nil
}

// Render implements Result.
func (r *Ext3Result) Render() string {
	var b strings.Builder
	b.WriteString("Extension: resource heterogeneity (the paper's 'resource wastage' challenge)\n")
	b.WriteString("(K-means 10 GB, 128 tasks, CPU; node 0 slowed to the given fraction)\n\n")
	t := tables.New("", "node-0 speed", "policy", "makespan (s)", "core util")
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%.0f%%", row.SlowFactor*100),
			row.Policy.Describe(),
			tables.FormatFloat(row.MakespanCPU),
			fmt.Sprintf("%.0f%%", row.CoreUtil*100),
		)
	}
	b.WriteString(t.String())
	b.WriteString("\nA 4x straggler node does not quadruple the makespan: load-aware placement\n")
	b.WriteString("routes work around it, at the cost of idle capacity elsewhere — the\n")
	b.WriteString("imbalance/wastage trade-off the paper's automated-design agenda targets.\n")
	return b.String()
}

func init() {
	register(Experiment{
		ID:    "ext3",
		Title: "Extension: scheduling under resource heterogeneity (stragglers)",
		Run:   runExt3,
	})
}
