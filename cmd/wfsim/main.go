// Command wfsim runs the paper's experiments and utilities from the
// command line.
//
// Usage:
//
//	wfsim list                         list available experiments
//	wfsim run [-j N] <id> [...]        run experiments by ID (fig1, fig7a, ... table1, all)
//	wfsim dag <kmeans|matmul|fma> [-grid g] [-iters n]
//	                                   emit the workload DAG as Graphviz DOT (Figure 6)
//	wfsim sweep [-alg kmeans|matmul] [-dataset small|large|tiny]
//	                                   print a block-size sweep (CPU vs GPU)
//	wfsim trace [-grid g] [-out file]  run K-means and dump a Paraver-like trace
//	wfsim service [-tenants n] [-load l] [-arrivals poisson|g1,g2,...]
//	                                   serve a stream of workflows on one shared cluster and
//	                                   report per-tenant queue wait / response / slowdown
//
// The CLI reports real elapsed time to humans, so it is wall-clock layer
// by design and exempt from the walltime determinism lint.
//
//wfsimlint:wallclock
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/apps/matmul"
	"wfsim/internal/dataset"
	"wfsim/internal/experiments"
	"wfsim/internal/faults"
	"wfsim/internal/model"
	"wfsim/internal/resultcache"
	"wfsim/internal/runner"
	"wfsim/internal/runtime"
	"wfsim/internal/server"
	"wfsim/internal/service"
	"wfsim/internal/storage"
	"wfsim/internal/tables"

	"wfsim/internal/costmodel"
)

// simFlags registers the storage and fault-injection knobs shared by the
// trace and gantt commands and returns a builder that assembles their part
// of the SimConfig after parsing.
func simFlags(fs *flag.FlagSet) func(*runtime.SimConfig) {
	arch := fs.String("storage", "shared", "storage architecture: shared or local")
	seed := fs.Uint64("fault-seed", 1, "failure-injection seed")
	mtbf := fs.Float64("fault-mtbf", 0, "mean time between node crashes per node, virtual s (0 = off)")
	mttr := fs.Float64("fault-mttr", 0, "mean node repair time, virtual s (default mtbf/10)")
	prob := fs.Float64("fault-p", 0, "transient failure probability per task attempt (0 = off)")
	slow := fs.Float64("fault-straggler-mtbf", 0, "mean time between straggler episodes per node, virtual s (0 = off)")
	return func(cfg *runtime.SimConfig) {
		if *arch == "local" {
			cfg.Storage = storage.Local
		}
		cfg.Faults = faults.Config{
			Seed: *seed, NodeMTBF: *mtbf, NodeMTTR: *mttr,
			TaskFailProb: *prob, StragglerMTBF: *slow,
		}
	}
}

// faultSummary prints one line of failure-injection accounting when it is
// enabled; silent otherwise so fault-free output stays byte-stable.
func faultSummary(cfg runtime.SimConfig, res *runtime.SimResult) {
	if !cfg.Faults.Enabled() {
		return
	}
	f := res.Faults
	fmt.Fprintf(os.Stderr,
		"faults: %d crashes, %d requeues, %d retries, %d blocks lost, %d recomputes, %d restages, wasted %.2fs, recovery %.2fs\n",
		f.Crashes, f.CrashRequeues, f.Retries, f.BlocksLost,
		f.LineageRecomputes, f.InputRestages, f.WastedWork, f.RecoveryWork)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "dag":
		err = cmdDAG(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "advise":
		err = cmdAdvise(os.Args[2:])
	case "gantt":
		err = cmdGantt(os.Args[2:])
	case "service":
		err = cmdService(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "wfsim: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfsim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  wfsim list                       list available experiments
  wfsim run [-j N] <id>... | all   run experiments (fig1 fig7a fig7b fig8 fig9a fig9b fig10a fig10b fig11 fig12 table1)
                                   -j sets trial parallelism (0 = all CPUs); Ctrl-C cancels
  wfsim dag <kmeans|matmul|fma>    emit a workload DAG as Graphviz DOT
  wfsim sweep                      block-size sweep, CPU vs GPU
  wfsim trace                      dump a Paraver-like trace of a K-means run
  wfsim advise                     analytic CPU-vs-GPU recommendation for a workload
  wfsim gantt                      ASCII per-core timeline of a simulated run
  wfsim service                    multi-tenant online simulation: a workflow stream on one cluster
                                   -tenants N -load L -arrivals poisson|g1,g2,... -count -weights -quota
  wfsim serve                      HTTP/JSON server over the experiment registry
                                   -addr :8080 -cache DIR -cache-max BYTES
                                   GET /experiments /run/{id} /stats, POST /whatif

run accepts -cache DIR to persist trial results: a second identical run
is served from the cache instead of re-simulated.

trace, gantt and service accept -storage shared|local and deterministic failure
injection: -fault-seed -fault-mtbf -fault-mttr -fault-p -fault-straggler-mtbf`)
}

func cmdList() error {
	t := tables.New("Experiments", "id", "title")
	for _, e := range experiments.All() {
		t.AddRow(e.ID, e.Title)
	}
	fmt.Print(t.String())
	return nil
}

func cmdRun(args []string) error {
	asJSON := false
	workers := 0
	cacheDir := ""
	var ids []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-json" || a == "--json":
			asJSON = true
		case a == "-j" || a == "--j":
			i++
			if i >= len(args) {
				return fmt.Errorf("run: -j needs a worker count")
			}
			n, err := strconv.Atoi(args[i])
			if err != nil {
				return fmt.Errorf("run: -j %q: %w", args[i], err)
			}
			workers = n
		case strings.HasPrefix(a, "-j="):
			n, err := strconv.Atoi(strings.TrimPrefix(a, "-j="))
			if err != nil {
				return fmt.Errorf("run: %q: %w", a, err)
			}
			workers = n
		case a == "-cache" || a == "--cache":
			i++
			if i >= len(args) {
				return fmt.Errorf("run: -cache needs a directory")
			}
			cacheDir = args[i]
		case strings.HasPrefix(a, "-cache="):
			cacheDir = strings.TrimPrefix(a, "-cache=")
		default:
			ids = append(ids, a)
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("run: no experiment id (try `wfsim list`)")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// One engine across all requested experiments: identical factor
	// combinations appearing in several figures simulate once.
	eng := runner.New(workers)
	defer func() {
		st := eng.Stats()
		fmt.Fprintf(os.Stderr, "workflows: %d built, %d reused\n", st.WorkflowBuilds, st.WorkflowReuses)
	}()
	if cacheDir != "" {
		store, err := resultcache.Open(cacheDir, 0)
		if err != nil {
			return err
		}
		defer func() {
			st := store.Stats()
			fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d puts, %d entries, %d bytes\n",
				st.Hits, st.Misses, st.Puts, st.Entries, st.Bytes)
			store.Close()
		}()
		eng.SetCache(store)
	}
	type jsonOut struct {
		ID     string             `json:"id"`
		Title  string             `json:"title"`
		Result experiments.Result `json:"result"`
	}
	var outs []jsonOut
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := e.Run(ctx, eng)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if asJSON {
			outs = append(outs, jsonOut{ID: e.ID, Title: e.Title, Result: res})
			continue
		}
		fmt.Printf("==== %s — %s (%v)\n\n%s\n", e.ID, e.Title, time.Since(start).Round(time.Millisecond), res.Render())
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(outs)
	}
	return nil
}

func cmdDAG(args []string) error {
	fs := flag.NewFlagSet("dag", flag.ContinueOnError)
	grid := fs.Int64("grid", 4, "grid dimension g")
	iters := fs.Int("iters", 3, "K-means iterations")
	if len(args) == 0 {
		return fmt.Errorf("dag: missing workload (kmeans|matmul|fma)")
	}
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	var wf *runtime.Workflow
	var err error
	switch args[0] {
	case "kmeans":
		wf, err = kmeans.Build(kmeans.Config{
			Dataset: dataset.KMeansSmall, Grid: *grid, Clusters: 10, Iterations: *iters,
		})
	case "matmul":
		wf, err = matmul.Build(matmul.Config{Dataset: dataset.MatmulSmall, Grid: *grid})
	case "fma":
		wf, err = matmul.Build(matmul.Config{Dataset: dataset.MatmulSmall, Grid: *grid, Variant: matmul.FMA})
	default:
		return fmt.Errorf("dag: unknown workload %q", args[0])
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# %s: %d tasks, width %d, height %d\n# %s\n",
		args[0], wf.Graph.Len(), wf.Graph.MaxWidth(), wf.Graph.MaxHeight(), wf.Graph.Summary())
	return wf.Graph.DOT(os.Stdout, fmt.Sprintf("%s grid %d", args[0], *grid))
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	alg := fs.String("alg", "kmeans", "algorithm: kmeans or matmul")
	dsName := fs.String("dataset", "small", "dataset: tiny, small or large")
	clusters := fs.Int64("clusters", 10, "K-means clusters")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var a experiments.Algorithm
	var ds dataset.Dataset
	var grids []int64
	switch *alg {
	case "kmeans":
		a = experiments.KMeans
		grids = dataset.KMeansGrids
		switch *dsName {
		case "tiny":
			ds = dataset.KMeansTiny
		case "large":
			ds = dataset.KMeansLarge
		default:
			ds = dataset.KMeansSmall
		}
	case "matmul":
		a = experiments.Matmul
		grids = dataset.MatmulGrids
		switch *dsName {
		case "tiny":
			ds = dataset.MatmulTiny
		case "large":
			ds = dataset.MatmulLarge
		default:
			ds = dataset.MatmulSmall
		}
	default:
		return fmt.Errorf("sweep: unknown algorithm %q", *alg)
	}
	t := tables.New(fmt.Sprintf("Sweep: %s on %s", a, ds),
		"block size", "grid", "CPU p.tasks (s)", "GPU p.tasks (s)", "GPU speedup", "")
	for i := len(grids) - 1; i >= 0; i-- {
		cpu, gpu, err := experiments.RunPair(experiments.CellConfig{
			Algorithm: a, Dataset: ds, Grid: grids[i], Clusters: *clusters,
		})
		if err != nil {
			return err
		}
		note := ""
		switch {
		case cpu.OOM && gpu.OOM:
			note = "CPU GPU OOM"
		case gpu.OOM:
			note = "GPU OOM"
		}
		spd := "-"
		cpuS, gpuS := "-", "-"
		if !cpu.OOM {
			cpuS = tables.FormatFloat(cpu.PTaskMean)
		}
		if !gpu.OOM {
			gpuS = tables.FormatFloat(gpu.PTaskMean)
		}
		if !cpu.OOM && !gpu.OOM {
			spd = tables.FormatSpeedup(experiments.Speedup(cpu.PTaskMean, gpu.PTaskMean))
		}
		t.AddRow(dataset.FormatBytes(cpu.BlockBytes), cpu.GridString, cpuS, gpuS, spd, note)
	}
	fmt.Print(t.String())
	return nil
}

// cmdAdvise runs the §5.4.3 analytic advisor on one of the paper's
// workloads: it decomposes the task user code (Amdahl view) and predicts
// whether GPU offload pays off at the configured task count, without
// running a simulation.
func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ContinueOnError)
	alg := fs.String("alg", "kmeans", "workload: kmeans or matmul")
	grid := fs.Int64("grid", 256, "grid dimension (= task count per level)")
	clusters := fs.Int64("clusters", 10, "K-means clusters")
	if err := fs.Parse(args); err != nil {
		return err
	}
	params := costmodel.DefaultParams()
	var prof costmodel.Profile
	var tasks int
	switch *alg {
	case "kmeans":
		part, err := dataset.ByGrid(dataset.KMeansSmall, *grid, 1)
		if err != nil {
			return err
		}
		prof = kmeans.PartialSumProfile(part.BlockRows, part.BlockCols, *clusters)
		prof.ReadBytes = float64(part.BlockBytes())
		prof.WriteBytes = float64(*clusters * (part.BlockCols + 1) * 8)
		tasks = int(*grid)
	case "matmul":
		part, err := dataset.ByGrid(dataset.MatmulSmall, *grid, *grid)
		if err != nil {
			return err
		}
		prof, _ = matmul.Profiles(part.BlockRows)
		prof.ReadBytes, prof.WriteBytes = prof.BytesIn, prof.BytesOut
		tasks = int(*grid * *grid * *grid)
	default:
		return fmt.Errorf("advise: unknown workload %q", *alg)
	}

	b := model.Breakdown(params, prof)
	t := tables.New("Analytic user-code breakdown (per task)",
		"component", "seconds")
	t.AddRow("serial fraction", tables.FormatFloat(b.SerialSec))
	t.AddRow("parallel fraction (CPU core)", tables.FormatFloat(b.CPUParallel))
	t.AddRow("parallel fraction (GPU)", tables.FormatFloat(b.GPUParallel))
	t.AddRow("CPU-GPU communication", tables.FormatFloat(b.CommSec))
	fmt.Print(t.String())
	fmt.Printf("\nkernel speedup %.2fx | user-code speedup %.2fx | parallel fraction %.0f%% | Amdahl limit %.2fx\n\n",
		b.KernelSpeedup, b.UserCodeSpeedup, b.ParallelFraction*100, b.AmdahlLimit)

	adv := model.NewAdvisor()
	rec := adv.Recommend(prof, tasks)
	r := tables.New(fmt.Sprintf("Level prediction for %d tasks on Minotauro", tasks),
		"device", "lower bound (s)", "upper bound (s)", "")
	for _, p := range []model.Prediction{rec.CPU, rec.GPU} {
		if p.OOM {
			r.AddRow(p.Device.String(), "-", "-", "OOM")
			continue
		}
		r.AddRow(p.Device.String(), tables.FormatFloat(p.LevelLower), tables.FormatFloat(p.LevelUpper), "")
	}
	fmt.Print(r.String())
	verdict := "CPU"
	if rec.UseGPU {
		verdict = "GPU"
	}
	conf := "bounds overlap — verify with `wfsim sweep`"
	if rec.Confident {
		conf = "confident (bounds separated)"
	}
	fmt.Printf("\nrecommendation: %s (%s)\n", verdict, conf)
	return nil
}

// cmdGantt simulates a K-means run and renders a per-core ASCII timeline:
// the terminal equivalent of a Paraver view, showing where cores spend
// their time ((de)serialization dominance, GPU waves, stragglers).
func cmdGantt(args []string) error {
	fs := flag.NewFlagSet("gantt", flag.ContinueOnError)
	grid := fs.Int64("grid", 32, "grid dimension")
	gpu := fs.Bool("gpu", true, "GPU-accelerate parallel tasks")
	width := fs.Int("width", 100, "timeline width in characters")
	rows := fs.Int("rows", 16, "max core rows (busiest first)")
	sim := simFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wf, err := kmeans.Build(kmeans.Config{
		Dataset: dataset.KMeansSmall, Grid: *grid, Clusters: 10, Iterations: 2,
	})
	if err != nil {
		return err
	}
	dev := costmodel.CPU
	if *gpu {
		dev = costmodel.GPU
	}
	cfg := runtime.SimConfig{Device: dev}
	sim(&cfg)
	res, err := runtime.RunSim(wf, cfg)
	if err != nil {
		return err
	}
	faultSummary(cfg, res)
	fmt.Printf("K-means 10 GB, grid %dx1, %s tasks — makespan %.2fs, core util %.0f%%, gpu util %.0f%%\n",
		*grid, dev, res.Makespan, res.CoreUtilization*100, res.GPUUtilization*100)
	return res.Collector.WriteGantt(os.Stdout, *width, *rows)
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	grid := fs.Int64("grid", 32, "grid dimension")
	out := fs.String("out", "", "output file (default stdout)")
	format := fs.String("format", "prv", "trace format: prv or csv")
	sim := simFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wf, err := kmeans.Build(kmeans.Config{Dataset: dataset.KMeansSmall, Grid: *grid, Clusters: 10})
	if err != nil {
		return err
	}
	cfg := runtime.SimConfig{Device: costmodel.GPU}
	sim(&cfg)
	res, err := runtime.RunSim(wf, cfg)
	if err != nil {
		return err
	}
	faultSummary(cfg, res)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *format == "csv" {
		return res.Collector.WriteCSV(w)
	}
	return res.Collector.WritePRV(w)
}

// cmdServe exposes the experiment registry and the persistent result
// cache over HTTP: run-by-name, single-trial what-if queries answered
// from cache when warm, and cache/engine counters.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	cacheDir := fs.String("cache", "", "persistent result-cache directory (empty = in-memory memo only)")
	cacheMax := fs.Int64("cache-max", 0, "cache size bound in bytes (0 = unbounded)")
	workers := fs.Int("j", 0, "trial parallelism (0 = all CPUs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng := runner.New(*workers)
	var store *resultcache.Store
	if *cacheDir != "" {
		var err error
		store, err = resultcache.Open(*cacheDir, *cacheMax)
		if err != nil {
			return err
		}
		defer store.Close()
		fmt.Fprintf(os.Stderr, "wfsim serve: cache %s (%d entries warm)\n", *cacheDir, store.Stats().Entries)
	}
	srv := server.New(eng, store)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()
	fmt.Fprintf(os.Stderr, "wfsim serve: listening on %s\n", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// cmdService runs the cluster as an online multi-tenant service: a seeded
// stream of K-means workflows arrives over virtual time on one shared
// cluster, and the output is per-tenant service statistics rather than a
// single makespan.
func cmdService(args []string) error {
	fs := flag.NewFlagSet("service", flag.ContinueOnError)
	tenants := fs.Int("tenants", 2, "number of tenants sharing the cluster")
	load := fs.Float64("load", 1.5, "offered load: cluster-wide arrival rate as a multiple of the isolated completion rate")
	arrivals := fs.String("arrivals", "poisson", `arrival process: "poisson", or a comma list of interarrival gaps in virtual s (replayed by every tenant)`)
	count := fs.Int("count", 6, "workflows per tenant (ignored when -arrivals is a trace)")
	grid := fs.Int64("grid", 32, "K-means grid dimension per workflow")
	seed := fs.Uint64("seed", 42, "arrival-stream seed")
	weights := fs.String("weights", "", "comma list of fair-share weights, one per tenant (default equal)")
	quota := fs.Int("quota", 0, "per-tenant concurrent-task admission quota (0 = unlimited)")
	gpu := fs.Bool("gpu", true, "GPU-accelerate parallel tasks")
	sim := simFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tenants <= 0 {
		return fmt.Errorf("service: -tenants %d, must be positive", *tenants)
	}
	dev := costmodel.CPU
	if *gpu {
		dev = costmodel.GPU
	}
	cfg := runtime.SimConfig{Device: dev}
	sim(&cfg)

	var w []float64
	if *weights != "" {
		for _, s := range strings.Split(*weights, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("service: -weights %q: %w", *weights, err)
			}
			w = append(w, v)
		}
		if len(w) != *tenants {
			return fmt.Errorf("service: %d weights for %d tenants", len(w), *tenants)
		}
	}
	var trace []float64
	if *arrivals != "poisson" {
		for _, s := range strings.Split(*arrivals, ",") {
			g, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("service: -arrivals %q: %w", *arrivals, err)
			}
			trace = append(trace, g)
		}
	}

	build := func(int) (*runtime.Workflow, error) {
		return kmeans.Build(kmeans.Config{
			Dataset: dataset.KMeansSmall, Grid: *grid, Clusters: 10, Iterations: 2,
		})
	}
	// The isolated makespan anchors both the Poisson rate (-load is a
	// multiple of the cluster's lone-workflow completion rate) and the
	// slowdown denominator, so measure it once here.
	wf, err := build(0)
	if err != nil {
		return err
	}
	iso := cfg
	iso.Faults = faults.Config{}
	base, err := runtime.RunSim(wf, iso)
	if err != nil {
		return err
	}

	svc := service.Config{Sim: cfg, Seed: *seed}
	for i := 0; i < *tenants; i++ {
		t := service.Tenant{
			Name:     fmt.Sprintf("tenant%d", i),
			Quota:    *quota,
			Count:    *count,
			Build:    build,
			Baseline: base.Makespan,
		}
		if len(w) > 0 {
			t.Weight = w[i]
		}
		if len(trace) > 0 {
			t.Interarrival, t.Count = trace, len(trace)
		} else {
			t.Rate = *load / base.Makespan / float64(*tenants)
		}
		svc.Tenants = append(svc.Tenants, t)
	}
	res, err := service.Run(svc)
	if err != nil {
		return err
	}

	fmt.Printf("K-means 10 GB grid %d ×2 iter on %s — isolated makespan %.2fs, load %gx, %d tenants\n",
		*grid, dev, base.Makespan, *load, *tenants)
	t := tables.New("", "tenant", "workflows", "tasks",
		"queue wait p50/p95 (s)", "response p50/p95 (s)", "slowdown p50/p95/p99")
	for _, ten := range res.Tenants {
		t.AddRow(ten.Name,
			fmt.Sprint(ten.Workflows), fmt.Sprint(ten.Tasks),
			tables.FormatFloat(ten.QueueWait.P50)+" / "+tables.FormatFloat(ten.QueueWait.P95),
			tables.FormatFloat(ten.Response.P50)+" / "+tables.FormatFloat(ten.Response.P95),
			fmt.Sprintf("%.2f / %.2f / %.2f", ten.Slowdown.P50, ten.Slowdown.P95, ten.Slowdown.P99))
	}
	fmt.Print(t.String())
	fmt.Printf("\nhorizon %.2fs, core util %.0f%%, gpu util %.0f%%\n",
		res.Horizon, res.CoreUtilization*100, res.GPUUtilization*100)
	if cfg.Faults.Enabled() {
		f := res.Faults
		fmt.Fprintf(os.Stderr,
			"faults: %d crashes, %d requeues, %d retries, %d blocks lost, %d recomputes, %d restages, wasted %.2fs, recovery %.2fs\n",
			f.Crashes, f.CrashRequeues, f.Retries, f.BlocksLost,
			f.LineageRecomputes, f.InputRestages, f.WastedWork, f.RecoveryWork)
	}
	return nil
}
