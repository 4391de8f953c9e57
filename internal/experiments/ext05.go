package experiments

import (
	"context"
	"fmt"
	"strings"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/resultcache"
	"wfsim/internal/runner"
	"wfsim/internal/runtime"
	"wfsim/internal/sched"
	"wfsim/internal/service"
	"wfsim/internal/storage"
	"wfsim/internal/tables"
)

// Ext5Row is one tenant's service outcome within one
// (load × tenancy × storage × policy) trial.
type Ext5Row struct {
	Load      float64
	NumTenant int
	Storage   storage.Architecture
	Policy    sched.Policy
	Tenant    string
	Workflows int
	Horizon   float64
	CoreUtil  float64
	QueueP95  float64
	Slowdown  Ext5Slowdown
}

// Ext5Slowdown is the slowdown percentile snapshot carried per row.
type Ext5Slowdown struct {
	P50, P95, P99, Mean float64
}

// Ext5Result is the load-sweep-to-saturation study: the cluster stops
// being a benchmark rig and becomes a service. A Poisson stream of
// K-means workflows arrives at a swept offered load (0.5× to 4× the
// cluster's isolated completion rate), split across one or two tenants,
// under both storage architectures and both COMPSs scheduling policies.
// Reported per tenant: slowdown percentiles (response over isolated
// makespan) and p95 queue wait — the service-level view in which
// scheduler and storage choices reorder, echoing Beránek et al.'s finding
// that scheduler rankings shift with contention.
type Ext5Result struct {
	Rows []Ext5Row
}

// ext5Spec is one trial configuration.
type ext5Spec struct {
	load    float64
	tenants int
	arch    storage.Architecture
	pol     sched.Policy
}

// ext5Workflows is the total workflow count per trial, split evenly
// across tenants so every trial offers the same amount of work.
const ext5Workflows = 8

// ext5Workflow is every arrival's workflow in every trial: one K-means
// that the engine builds once and all sessions share read-only.
var ext5Workflow = kmeans.Config{
	Dataset: dataset.KMeansSmall, Grid: 32, Clusters: 10, Iterations: 2,
}

func runExt5(ctx context.Context, eng *runner.Engine) (Result, error) {
	var specs []ext5Spec
	for _, load := range []float64{0.5, 1, 2, 4} {
		for _, tenants := range []int{1, 2} {
			for _, arch := range []storage.Architecture{storage.Shared, storage.Local} {
				for _, pol := range []sched.Policy{sched.FIFO, sched.Locality} {
					specs = append(specs, ext5Spec{load: load, tenants: tenants, arch: arch, pol: pol})
				}
			}
		}
	}
	rows, err := runner.Map(ctx, eng, "ext5", specs,
		func(s ext5Spec) string {
			return resultcache.KeyOf("ext5", s.load, s.tenants, int(s.arch), int(s.pol)).Hex()
		},
		func(ctx context.Context, s ext5Spec) ([]Ext5Row, error) {
			build := func(int) (*runtime.Workflow, error) {
				return runner.Workflow(ctx, ext5Workflow, kmeans.Build)
			}
			sim := runtime.SimConfig{
				Device:  costmodel.GPU,
				Storage: s.arch,
				Policy:  s.pol,
			}
			// The isolated makespan anchors the sweep: offered load L means
			// workflows arrive cluster-wide at L times the rate the cluster
			// finishes one in isolation. It is also the slowdown baseline,
			// so it is measured once here and passed through.
			wf, err := build(0)
			if err != nil {
				return nil, err
			}
			base, err := runtime.RunSim(wf, sim)
			if err != nil {
				return nil, err
			}
			perTenantRate := s.load / base.Makespan / float64(s.tenants)
			count := ext5Workflows / s.tenants

			cfg := service.Config{Sim: sim, Seed: 42}
			for t := 0; t < s.tenants; t++ {
				cfg.Tenants = append(cfg.Tenants, service.Tenant{
					Name:     fmt.Sprintf("t%d", t),
					Rate:     perTenantRate,
					Count:    count,
					Build:    build,
					Baseline: base.Makespan,
				})
			}
			res, err := service.Run(cfg)
			if err != nil {
				return nil, err
			}
			out := make([]Ext5Row, 0, s.tenants)
			for _, ten := range res.Tenants {
				out = append(out, Ext5Row{
					Load: s.load, NumTenant: s.tenants, Storage: s.arch, Policy: s.pol,
					Tenant: ten.Name, Workflows: ten.Workflows,
					Horizon: res.Horizon, CoreUtil: res.CoreUtilization,
					QueueP95: ten.QueueWait.P95,
					Slowdown: Ext5Slowdown{
						P50: ten.Slowdown.P50, P95: ten.Slowdown.P95,
						P99: ten.Slowdown.P99, Mean: ten.Slowdown.Mean,
					},
				})
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	flat := make([]Ext5Row, 0, len(rows)*2)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	return &Ext5Result{Rows: flat}, nil
}

// Render implements Result.
func (r *Ext5Result) Render() string {
	var b strings.Builder
	b.WriteString("Extension: multi-tenant load sweep to saturation (K-means 32 blocks × 2 iter, GPU,\n")
	b.WriteString("Poisson arrivals, 8 workflows per trial split across tenants, weighted fair-share gate)\n\n")
	t := tables.New("", "load", "tenants", "storage", "policy", "tenant",
		"slowdown p50", "p95", "p99", "queue p95 (s)", "core util")
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%gx", row.Load),
			fmt.Sprint(row.NumTenant),
			row.Storage.String(),
			row.Policy.Describe(),
			row.Tenant,
			tables.FormatFloat(row.Slowdown.P50),
			tables.FormatFloat(row.Slowdown.P95),
			tables.FormatFloat(row.Slowdown.P99),
			tables.FormatFloat(row.QueueP95),
			fmt.Sprintf("%.2f", row.CoreUtil),
		)
	}
	b.WriteString(t.String())
	b.WriteString("\nBelow saturation (load ≤ 1) slowdown stays near 1: arrivals rarely overlap.\n")
	b.WriteString("Past it, queueing dominates — tail slowdown (p99) grows much faster than the\n")
	b.WriteString("median, and policy/storage choices that tie on a lone workflow separate under\n")
	b.WriteString("contention. Splitting the same offered load across two fair-share tenants\n")
	b.WriteString("leaves the totals unchanged but isolates each stream's tail from the other's\n")
	b.WriteString("bursts — the service-level argument for tenant-aware dispatch.\n")
	return b.String()
}

func init() {
	register(Experiment{
		ID:    "ext5",
		Title: "Extension: multi-tenant online service — load sweep to saturation",
		Run:   runExt5,
	})
}
