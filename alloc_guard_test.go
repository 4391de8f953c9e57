package wfsim_test

import (
	"testing"

	"wfsim"
)

// simAllocs returns the allocations of one full build+simulate cycle of a
// 64-block K-means with the given iteration count and environment,
// averaged over a few runs.
func simAllocs(t *testing.T, iterations int, cfg wfsim.SimConfig) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
			Dataset: wfsim.Datasets.KMeansSmall, Grid: 64, Clusters: 10,
			Iterations: iterations,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wfsim.RunSim(wf, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSimAllocBudget is the hot-path allocation-regression guard: it
// measures the marginal allocations per simulated task — the difference
// between a deep and a shallow run of the same workflow shape, so
// fixed per-run costs (cluster construction, collector buffer, task-run
// pool warm-up) cancel out — and fails if the hot path regresses past a small
// fixed budget.
//
// The datum-interning refactor pinned this near 2 allocations per task:
// the task's datum-name string built by the app and its interner map
// entry, both build-time; the simulate path itself is allocation-free in
// steady state. The budget leaves headroom for noise, not for regressions:
// if this fails, something on the per-task path started allocating.
//
// Both environments must hold the budget: the default shared-disk FIFO
// path, and the local-disk locality path that exercises the placement
// scratch and the storage location table. In particular the fault-injection
// machinery must stay free on fault-free runs — attempt buffers and
// recovery bookkeeping are only allocated when SimConfig.Faults is enabled.
func TestSimAllocBudget(t *testing.T) {
	const (
		shallowIters = 2
		deepIters    = 12
		grid         = 64
		budget       = 6.0 // marginal allocs per task, ~5× observed
	)
	configs := []struct {
		name string
		cfg  wfsim.SimConfig
	}{
		{"shared-fifo-gpu", wfsim.SimConfig{Device: wfsim.GPU}},
		{"local-locality-gpu", wfsim.SimConfig{
			Device: wfsim.GPU, Storage: wfsim.LocalDisk, Policy: wfsim.DataLocality,
		}},
		// The lookahead path allocates its rank tables once per workflow at
		// submission; the per-task dispatch (rank pop + EFT placement) must
		// stay free, so the marginal budget holds unchanged.
		{"shared-heft-cpu", wfsim.SimConfig{
			Device: wfsim.CPU, Policy: wfsim.HEFT,
		}},
		{"local-worksteal-gpu", wfsim.SimConfig{
			Device: wfsim.GPU, Storage: wfsim.LocalDisk, Policy: wfsim.WorkStealing,
		}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			// Warm the allocator so both measured runs see identical
			// steady-state conditions.
			simAllocs(t, deepIters, c.cfg)

			shallow := simAllocs(t, shallowIters, c.cfg)
			deep := simAllocs(t, deepIters, c.cfg)
			marginalTasks := float64((grid + 1) * (deepIters - shallowIters))
			perTask := (deep - shallow) / marginalTasks
			t.Logf("allocs: shallow=%.0f deep=%.0f marginal/task=%.2f (budget %v)",
				shallow, deep, perTask, budget)
			if perTask > budget {
				t.Errorf("hot path allocates %.2f allocations per task, budget %v", perTask, budget)
			}
		})
	}

	// Streaming mode must hold the same budget with the same cancellation
	// trick: a shared Aggregates sink and substrate arena persist across
	// runs (the sweep-worker usage pattern), so in steady state the
	// simulate path allocates nothing at all and the marginal cost is the
	// build side's datum strings. This is the regime the million-task
	// benchmark depends on — a collector would retain one record per task
	// stage, while the sink's footprint stays O(task types), independent of
	// depth.
	t.Run("streaming-sink-arena", func(t *testing.T) {
		var arena wfsim.Arena
		agg := wfsim.NewAggregates()
		streamAllocs := func(iterations int) float64 {
			return testing.AllocsPerRun(3, func() {
				wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
					Dataset: wfsim.Datasets.KMeansSmall, Grid: grid, Clusters: 10,
					Iterations: iterations,
				})
				if err != nil {
					t.Fatal(err)
				}
				agg.Reset()
				res, err := wfsim.RunSim(wf, wfsim.SimConfig{
					Device: wfsim.GPU, Storage: wfsim.LocalDisk, Policy: wfsim.DataLocality,
					Sink: agg, Arena: &arena,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Collector != nil {
					t.Fatal("streaming run retained a collector")
				}
			})
		}
		streamAllocs(deepIters)
		shallow := streamAllocs(shallowIters)
		deep := streamAllocs(deepIters)
		marginalTasks := float64((grid + 1) * (deepIters - shallowIters))
		perTask := (deep - shallow) / marginalTasks
		t.Logf("allocs: shallow=%.0f deep=%.0f marginal/task=%.2f (budget %v)",
			shallow, deep, perTask, budget)
		if perTask > budget {
			t.Errorf("streaming hot path allocates %.2f allocations per task, budget %v", perTask, budget)
		}
	})

	// The multi-tenant substrate must hold the same budget: the fair-share
	// gate, tenant accounting and per-session indirection may not put
	// allocations on the per-task path. Two tenants submit overlapping
	// K-means workflows onto one shared cluster; per-session fixed costs
	// (session structs, collectors, quota bookkeeping) cancel between the
	// shallow and deep measurement exactly like per-run costs do above.
	t.Run("two-tenant-multiplexed", func(t *testing.T) {
		const (
			shallowIters = 2
			deepIters    = 12
			grid         = 64
			budget       = 6.0
		)
		multiAllocs := func(iterations int) float64 {
			return testing.AllocsPerRun(3, func() {
				cs, err := wfsim.NewClusterSim(wfsim.SimConfig{Device: wfsim.GPU},
					[]wfsim.TenantSpec{{Weight: 2}, {Weight: 1}})
				if err != nil {
					t.Fatal(err)
				}
				for tenant := 0; tenant < 2; tenant++ {
					wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
						Dataset: wfsim.Datasets.KMeansSmall, Grid: grid, Clusters: 10,
						Iterations: iterations,
					})
					if err != nil {
						t.Fatal(err)
					}
					err = cs.Submit(tenant, wf, float64(tenant)*0.5, func(wfsim.WorkflowResult) {})
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := cs.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		multiAllocs(deepIters)
		shallow := multiAllocs(shallowIters)
		deep := multiAllocs(deepIters)
		marginalTasks := float64(2 * (grid + 1) * (deepIters - shallowIters))
		perTask := (deep - shallow) / marginalTasks
		t.Logf("allocs: shallow=%.0f deep=%.0f marginal/task=%.2f (budget %v)",
			shallow, deep, perTask, budget)
		if perTask > budget {
			t.Errorf("multi-tenant hot path allocates %.2f allocations per task, budget %v", perTask, budget)
		}
	})
}
