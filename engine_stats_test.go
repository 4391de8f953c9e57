package wfsim_test

import (
	"testing"

	"wfsim"
	"wfsim/internal/sim"
)

// kmeans256 builds the paper-scale 256-block K-means (1285 tasks).
func kmeans256(t *testing.T) *wfsim.Workflow {
	t.Helper()
	wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
		Dataset: wfsim.Datasets.KMeansSmall, Grid: 256, Clusters: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

// TestEngineStatsPinned pins the discrete-event engine's counters on the
// 256-block K-means. They are the equivalence proof for substrate
// rewrites: the values were recorded when tasks still ran as coroutine
// processes, so a step-machine substrate that matches them dispatches
// exactly the same events, takes the Wait fast path at exactly the same
// points and schedules exactly the same zero-delay wake-ups. The goldens
// pin the output; these pin the work done to produce it.
func TestEngineStatsPinned(t *testing.T) {
	run := func(cfg wfsim.SimConfig) func(t *testing.T) sim.Stats {
		return func(t *testing.T) sim.Stats {
			res, err := wfsim.RunSim(kmeans256(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Engine
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T) sim.Stats
		want sim.Stats
	}{
		{"shared-fifo-gpu", run(wfsim.SimConfig{Device: wfsim.GPU}),
			sim.Stats{Dispatched: 47980, FastWaits: 1190, RingHits: 17130, PeakPending: 256}},
		{"shared-fifo-cpu", run(wfsim.SimConfig{Device: wfsim.CPU}),
			sim.Stats{Dispatched: 39335, FastWaits: 1035, RingHits: 13450, PeakPending: 256}},
		// The determinism test's fault schedule: crashes, transient
		// failures with retries, stragglers and lineage recovery.
		{"local-faulty-gpu", run(wfsim.SimConfig{
			Device: wfsim.GPU, Storage: wfsim.LocalDisk,
			Faults: wfsim.FaultConfig{
				Seed: 7, NodeMTBF: 500, NodeMTTR: 20,
				TaskFailProb: 0.02, MaxAttempts: 10,
				StragglerMTBF: 1000,
			},
		}), sim.Stats{Dispatched: 349220, FastWaits: 2715, RingHits: 117810, PeakPending: 272}},
		// Two tenants sharing one cluster through the fair-share gate.
		{"two-tenant-gpu", func(t *testing.T) sim.Stats {
			cs, err := wfsim.NewClusterSim(wfsim.SimConfig{Device: wfsim.GPU},
				[]wfsim.TenantSpec{{Weight: 2}, {Weight: 1}})
			if err != nil {
				t.Fatal(err)
			}
			for tenant := 0; tenant < 2; tenant++ {
				err := cs.Submit(tenant, kmeans256(t), float64(tenant)*0.5, nil)
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := cs.Run(); err != nil {
				t.Fatal(err)
			}
			return cs.EngineStats()
		}, sim.Stats{Dispatched: 97110, FastWaits: 2484, RingHits: 35513, PeakPending: 288}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t); got != c.want {
				t.Errorf("engine stats = %+v, want %+v", got, c.want)
			}
		})
	}
}
