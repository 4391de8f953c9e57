// Command perfbench is wfsim's end-to-end benchmark. It drives one
// workload from a single process through the public functions of the
// experiments, runner, resultcache, server, apps/kmeans and runtime
// packages, checks every output, and prints the workload's metrics as
// one JSON object on its last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh -workload sweep|whatif|large -seed N -seconds S -trace 0|1
//
// With -trace 0 the run measures the end-to-end metrics with no
// instrumentation. With -trace 1 it runs the workload twice, untraced and
// then traced, and reports the per-layer metrics from the traced run
// together with how much slower it was. README.md explains the
// workloads and the metrics.
//
//wfsimlint:wallclock
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"
)

// nproc bounds the benchmark's parallelism: runner workers and HTTP
// clients alike.
var nproc = runtime.NumCPU()

// opts configures one run of a workload.
type opts struct {
	seed    uint64
	seconds int
	// dir is scratch space for the run, removed afterwards.
	dir string
	// tr is nil in the untraced run.
	tr *tracer
}

// pass is what one run of a workload measured.
type pass struct {
	wall time.Duration
	// cold and warm hold the wall time in ms of each cold and warm
	// operation; coldAlloc the bytes allocated by each cold operation.
	cold, warm, coldAlloc []float64
	// coldMs and warmMs are the end-to-end estimates made from them.
	coldMs, warmMs    float64
	attempted, failed int
	// problems describes the first failures.
	problems []string
	// layer holds per-layer metrics by name. The traced run's values are
	// reported, except for the names in untracedLayer.
	layer map[string]float64
	// probeDir is the state a set-up probe starts from ("" for none).
	probeDir string
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 10 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload.
type workload struct {
	run func(ctx context.Context, o opts) (*pass, error)
	// setup performs, in a fresh process, the set-up a user waits for
	// before the workload's first operation can start, starting from
	// the state in dir. It returns a function that releases it.
	setup func(dir string) (func(), error)
}

var workloads = map[string]workload{
	"sweep":  {run: runSweep, setup: setupSweep},
	"whatif": {run: runWhatIf, setup: setupWhatIf},
	"large":  {run: runLarge, setup: setupLarge},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run (BENCHMARK.json end_to_end).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_ms", "ms"},
	{"warm_ms", "ms"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics of the traced run (BENCHMARK.json per_layer).
// A workload that skips a layer reports 0 for it.
var perLayer = []metricDef{
	{"build.s", "s"},
	{"build.ns_per_task", "ns/task"},
	{"dag.tasks", "count"},
	{"runtime.run_sim_s", "s"},
	{"runtime.ns_per_task", "ns/task"},
	{"runtime.sched_decisions", "count"},
	{"runtime.makespan_virtual_s", "s"},
	{"metrics.observe_calls", "count"},
	{"metrics.observe_s", "s"},
	{"runner.trials", "count"},
	{"runner.memoized", "count"},
	{"runner.cache_hits", "count"},
	{"runner.failed", "count"},
	{"runner.busy_s", "s"},
	{"runner.parallelism", "ratio"},
	{"resultcache.open_s", "s"},
	{"resultcache.get_calls", "count"},
	{"resultcache.get_s", "s"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.put_calls", "count"},
	{"resultcache.put_s", "s"},
	{"resultcache.bytes", "bytes"},
	{"experiments.run_s", "s"},
	{"experiments.render_s", "s"},
	{"server.handler_cold_p50_ms", "ms"},
	{"server.handler_hot_p50_ms", "ms"},
	{"http.overhead_p50_ms", "ms"},
	{"server.source_simulation", "count"},
	{"server.source_memo", "count"},
	{"server.source_cache", "count"},
	{"server.cold_p95_ms", "ms"},
	{"client.cold_rps", "req/s"},
	{"client.hot_rps", "req/s"},
	{"client.hot_p99_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"go.mallocs", "count"},
	{"go.peak_heap_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
}

// untracedLayer are the per-layer names taken from the untraced run:
// client-side timings and Go runtime counters, which tracing would skew.
var untracedLayer = map[string]bool{
	"server.cold_p95_ms": true,
	"client.cold_rps":    true,
	"client.hot_rps":     true,
	"client.hot_p99_ms":  true,
	"go.gc_cycles":       true,
	"go.gc_pause_s":      true,
	"go.mallocs":         true,
	"go.peak_heap_mb":    true,
}

// setupProbes is how many fresh processes set-up time is measured over.
const setupProbes = 15

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sweep, whatif or large")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "intended length of one run, in seconds")
	trace := flag.Int("trace", 0, "1: also run traced and report per-layer metrics")
	probe := flag.String("probe", "", "internal: perform the named workload's set-up and report readiness")
	probeDir := flag.String("probe-dir", "", "internal: state directory for -probe")
	flag.Parse()

	if *probe != "" {
		if err := runProbe(*probe, *probeDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures workload name. It runs from the repository root and keeps
// its scratch files under .bench_build.
func run(name string, seed uint64, seconds int, traced bool) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want sweep, whatif or large)", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	ctx := context.Background()

	var before, after runtime.MemStats
	heap := watchHeap()
	runtime.ReadMemStats(&before)
	p, err := w.run(ctx, opts{seed: seed, seconds: seconds, dir: filepath.Join(work, "untraced")})
	runtime.ReadMemStats(&after)
	peak := heap.stop()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p.layer["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	p.layer["go.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	p.layer["go.mallocs"] = float64(after.Mallocs - before.Mallocs)
	p.layer["go.peak_heap_mb"] = float64(peak) / 1e6

	setup, err := measureSetup(name, p.probeDir)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	res := result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metricValue{}}
	problems := p.problems
	if traced {
		tr := newTracer()
		tp, err := w.run(ctx, opts{seed: seed, seconds: seconds, dir: filepath.Join(work, "traced"), tr: tr})
		if err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		if err := tr.writeFile(filepath.Join(".bench_build", "spans-"+name+".jsonl")); err != nil {
			return err
		}
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		problems = append(problems, tp.problems...)
		for _, m := range perLayer {
			v := tp.layer[m.name]
			if untracedLayer[m.name] {
				v = p.layer[m.name]
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		res.Metrics["trace.overhead_ratio"] = metricValue{tp.wall.Seconds() / p.wall.Seconds(), "ratio"}
	} else {
		e2e := map[string]float64{
			"setup_s":  setup,
			"cold_ms":  p.coldMs,
			"warm_ms":  p.warmMs,
			"alloc_mb": median(p.coldAlloc) / 1e6,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	res.Correct = res.Failed == 0

	host, err := json.Marshal(fingerprint("."))
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", host)
	printSummary(name, p, setup, float64(peak)/1e6)
	for _, pr := range problems {
		fmt.Printf("FAIL %s\n", pr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their output check", name, res.Failed, res.Attempted)
	}
	return nil
}

// printSummary prints the untraced run's end-to-end numbers, one per line,
// under the workload-specific names README.md maps them to.
func printSummary(name string, p *pass, setup, peakMB float64) {
	line := func(metric string, v float64, unit string, note string) {
		fmt.Printf("%-7s %-20s %14.4f %-6s %s\n", name, metric, v, unit, note)
	}
	// n states a timing's sample count and its tail.
	n := func(xs []float64) string {
		q, v, ok := tail(xs)
		if !ok {
			return fmt.Sprintf("(n=%d)", len(xs))
		}
		return fmt.Sprintf("(n=%d, p%g %.4f ms)", len(xs), q*100, v)
	}
	line("setup_s", setup, "s", fmt.Sprintf("(median of %d processes)", setupProbes))
	line("error_rate", float64(p.failed)/float64(max(p.attempted, 1)), "ratio", fmt.Sprintf("(%d of %d)", p.failed, p.attempted))
	line("peak_heap_mb", peakMB, "MB", "")
	switch name {
	case "sweep":
		line("sweep_cold_s", p.coldMs/1e3, "s", n(p.cold))
		line("sweep_warm_s", p.warmMs/1e3, "s", n(p.warm))
	case "whatif":
		line("whatif_cold_p50_ms", p.coldMs, "ms", n(p.cold))
		line("whatif_cold_rps", p.layer["client.cold_rps"], "req/s", "")
		line("whatif_hot_p50_ms", p.warmMs, "ms", n(p.warm))
		line("whatif_hot_p99_ms", p.layer["client.hot_p99_ms"], "ms", "")
		line("whatif_hot_rps", p.layer["client.hot_rps"], "req/s", "")
	case "large":
		line("large_s", p.coldMs/1e3, "s", n(p.cold))
		line("large_alloc_mb", median(p.coldAlloc)/1e6, "MB", fmt.Sprintf("(n=%d)", len(p.coldAlloc)))
		line("large_resim_s", p.warmMs/1e3, "s", n(p.warm))
	}
}

// heapWatch tracks the largest live heap seen at the end of any GC cycle.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

type gcSentinel struct{ _ [16]byte }

// watchHeap starts sampling the live heap after every GC cycle, through a
// finalizer that re-arms itself each cycle.
func watchHeap() *heapWatch {
	h := &heapWatch{}
	h.sample()
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		if !h.stopped.Load() {
			h.sample()
			h.arm()
		}
	})
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// stop ends sampling and returns the peak live heap in bytes.
func (h *heapWatch) stop() uint64 {
	h.stopped.Store(true)
	return h.peak.Load()
}

// measureSetup starts setupProbes fresh copies of this program, each of
// which performs the workload's set-up and then reports that it is ready,
// and returns the median time in seconds from process start to ready.
func measureSetup(name, dir string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, setupProbes)
	for range setupProbes {
		t, err := probeOnce(exe, name, dir)
		if err != nil {
			return 0, err
		}
		times = append(times, t)
	}
	return median(times), nil
}

func probeOnce(exe, name, dir string) (float64, error) {
	cmd := exec.Command(exe, "-probe", name, "-probe-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	elapsed := time.Since(start).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("probe: got %q, %v", line, readErr)
	}
	return elapsed, nil
}

// runProbe is the probe process: set up, report ready, release.
func runProbe(name, dir string) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	release, err := w.setup(dir)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	release()
	return nil
}

// settle runs a full collection before a timed operation, so that the
// previous operation's garbage is not collected on this one's time.
func settle() { runtime.GC() }
