// The large workload: one 102,500-task K-means workflow built with
// kmeans.Build and simulated with runtime.RunSim, streaming its records
// into metrics.Aggregates.
//
//wfsimlint:wallclock
package main

import (
	"context"
	"math"
	"runtime"
	"time"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/metrics"
	wfruntime "wfsim/internal/runtime"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

// largeConfig is the scale point ROADMAP's SimWorkflowLarge question is
// asked about: KMeansSmall on a 1024-block grid for 100 iterations.
var largeConfig = kmeans.Config{Dataset: dataset.KMeansSmall, Grid: 1024, Clusters: 10, Iterations: 100}

const (
	largeTasks = 1024*100 + 100
	// largeMakespanBits is the run's virtual makespan, recorded as IEEE
	// 754 bits at the commit that added this benchmark; it must match
	// exactly.
	largeMakespanBits = 0x4092ea3d7f52c96c
	// largePairMillis is roughly what one build-and-simulate plus one
	// re-simulation take on a 2-core host; a run makes as many pairs as
	// fit its seconds, at least one.
	largePairMillis = 2500
)

func largeSimConfig(sink metrics.Sink, arena *wfruntime.Arena) wfruntime.SimConfig {
	return wfruntime.SimConfig{
		Device:  costmodel.GPU,
		Storage: storage.Local,
		Policy:  sched.Locality,
		Sink:    sink,
		Arena:   arena,
	}
}

// runLarge alternates a cold operation, building the workflow and
// simulating it on a fresh arena, with a warm one, simulating the same
// workflow again on the arena the cold run released into.
func runLarge(_ context.Context, o opts) (*pass, error) {
	p := &pass{layer: map[string]float64{}}
	pairs := max(1, o.seconds*1000/largePairMillis)
	var observeCalls, observeNs, simTasks, builtTasks int64
	start := time.Now()
	for range pairs {
		var arena wfruntime.Arena
		agg := metrics.NewAggregates()
		var sink metrics.Sink = agg
		var timed *timedSink
		if o.tr != nil {
			timed = &timedSink{inner: agg}
			sink = timed
		}
		var ms0, ms1 runtime.MemStats
		settle()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		id := o.tr.begin("kmeans.build", -1, "")
		wf, err := kmeans.Build(largeConfig)
		o.tr.end(id)
		if err != nil {
			return nil, err
		}
		id = o.tr.begin("runtime.run_sim", -1, "")
		res, err := wfruntime.RunSim(wf, largeSimConfig(sink, &arena))
		o.tr.end(id)
		coldMs := float64(time.Since(t0).Nanoseconds()) / 1e6
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		p.attempted++
		checkLarge(p, "cold", res)
		p.cold = append(p.cold, coldMs)
		p.coldAlloc = append(p.coldAlloc, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		builtTasks += int64(wf.Graph.Len())
		simTasks += int64(res.SchedDecisions)

		agg.Reset()
		settle()
		t0 = time.Now()
		id = o.tr.begin("runtime.run_sim", -1, "")
		res, err = wfruntime.RunSim(wf, largeSimConfig(sink, &arena))
		o.tr.end(id)
		warmMs := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return nil, err
		}
		p.attempted++
		checkLarge(p, "warm", res)
		p.warm = append(p.warm, warmMs)
		simTasks += int64(res.SchedDecisions)
		if timed != nil {
			observeCalls += timed.calls
			observeNs += timed.ns
		}
		p.layer["dag.tasks"] = float64(wf.Graph.Len())
		p.layer["runtime.sched_decisions"] = float64(res.SchedDecisions)
		p.layer["runtime.makespan_virtual_s"] = res.Makespan
	}
	p.wall = time.Since(start)
	p.coldMs, p.warmMs = median(p.cold), median(p.warm)
	if o.tr != nil {
		spans := o.tr.snapshot()
		self := selfTimes(spans)
		build := selfByName(spans, self, "kmeans.build")
		// Observe runs inside RunSim; its time is counted, not spanned.
		sim := selfByName(spans, self, "runtime.run_sim") - float64(observeNs)/1e9
		p.layer["build.s"] = build
		p.layer["build.ns_per_task"] = build * 1e9 / float64(builtTasks)
		p.layer["runtime.run_sim_s"] = sim
		p.layer["runtime.ns_per_task"] = sim * 1e9 / float64(simTasks)
		p.layer["metrics.observe_calls"] = float64(observeCalls)
		p.layer["metrics.observe_s"] = float64(observeNs) / 1e9
	}
	return p, nil
}

func checkLarge(p *pass, phase string, res *wfruntime.SimResult) {
	if res.SchedDecisions != largeTasks {
		p.fail("large %s: %d scheduling decisions, want %d", phase, res.SchedDecisions, largeTasks)
	}
	if got := math.Float64bits(res.Makespan); got != largeMakespanBits {
		p.fail("large %s: makespan %v (bits %#x), recorded bits %#x", phase, res.Makespan, got, uint64(largeMakespanBits))
	}
}

// setupLarge has nothing to open: a scale-up run's set-up is process
// start plus validating the dataset partition.
func setupLarge(string) (func(), error) {
	_, err := dataset.ByGrid(largeConfig.Dataset, largeConfig.Grid, 1)
	return func() {}, err
}
