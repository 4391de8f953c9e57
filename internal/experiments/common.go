// Package experiments reproduces every figure and table of the paper's
// evaluation (§5). Each experiment builds the paper's workload at the
// paper's scale, executes it on the simulated Minotauro cluster, and
// renders the same rows/series the corresponding figure reports. The IDs
// match the paper artifacts: fig1, fig7a, fig7b, fig8, fig9a, fig9b,
// fig10a, fig10b, fig11, fig12, table1.
//
// Absolute times belong to the calibrated simulator, not the authors'
// testbed; the reproduction target is the shape of each result (who wins,
// by what factor, where the crossovers and OOMs fall). The calibration
// tests in this package pin those shapes.
//
// Execution model: every experiment enumerates its parameter sweep as a
// set of independent trials (one deterministic simulation each) and
// executes it through the internal/runner engine, which parallelizes
// across a bounded worker pool while preserving trial order — so rendered
// output is byte-identical regardless of the `-j` level.
package experiments

import (
	"context"
	"fmt"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/apps/matmul"
	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/faults"
	"wfsim/internal/metrics"
	"wfsim/internal/resultcache"
	"wfsim/internal/runner"
	"wfsim/internal/runtime"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

// Algorithm selects the workload family.
type Algorithm int

const (
	// Matmul is the fully parallelizable workload.
	Matmul Algorithm = iota
	// MatmulFMA is the fused variant (Figure 12).
	MatmulFMA
	// KMeans is the partially parallelizable workload.
	KMeans
)

func (a Algorithm) String() string {
	switch a {
	case Matmul:
		return "matmul"
	case MatmulFMA:
		return "matmul-fma"
	case KMeans:
		return "kmeans"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// HeadlineTask returns the task type whose user-code metrics the paper
// charts for this algorithm.
func (a Algorithm) HeadlineTask() string {
	if a == KMeans {
		return "partial_sum"
	}
	if a == MatmulFMA {
		return "fma_func"
	}
	return "matmul_func"
}

// CellConfig is one factor combination of Table 1.
type CellConfig struct {
	Algorithm Algorithm
	Dataset   dataset.Dataset
	Grid      int64 // g (g×g for matmul, g×1 for kmeans)
	Clusters  int64 // K-means only
	Device    costmodel.DeviceKind
	Storage   storage.Architecture
	Policy    sched.Policy
	// Iterations overrides the K-means default (5).
	Iterations int
	// Cluster overrides the Minotauro topology (zero value keeps it);
	// Figure 1's "single task" bars use a 1-node/1-core/1-GPU cluster.
	Cluster cluster.Spec
	// Params overrides the calibrated K80-era testbed model (nil keeps
	// it); the ext2 experiment passes costmodel.ModernParams().
	Params *costmodel.Params
	// Seed feeds the Random scheduling policy (unused by the
	// deterministic policies, but always part of the cache key).
	Seed uint64
	// Faults parameterizes failure injection; the zero value disables it.
	Faults faults.Config
}

// Cell is the measured outcome of one factor combination — one point of a
// figure.
type Cell struct {
	CellConfig

	// OOM marks configurations that exceed device/host memory; the other
	// metric fields are zero for OOM cells (the paper annotates, not
	// plots, them).
	OOM     bool
	HostOOM bool

	// BlockBytes is the nominal block size (the figures' X axis).
	BlockBytes int64
	// GridString is the paper's "4x4" label.
	GridString string
	// Tasks is the total task count of the workflow.
	Tasks int

	// Per-task user-code means for the headline task type.
	PFracMean  float64 // parallel fraction
	SerialMean float64 // serial fraction
	CommMean   float64 // CPU-GPU communication (in + out)
	UserMean   float64 // serial + parallel + comm

	// SecondPFrac / SecondComm / SecondUser report the secondary task
	// type (add_func) for Matmul; zero otherwise.
	SecondPFrac float64
	SecondComm  float64
	SecondUser  float64

	// Data-movement means per active core.
	DeserPerCore float64
	SerPerCore   float64

	// PTaskMean is the paper's parallel task execution time: the average
	// wall time per algorithm iteration (makespan / #iterations; Matmul
	// is a single pass), including every data-movement and scheduling
	// overhead.
	PTaskMean float64
	// LevelSpanMean is the unweighted mean span across DAG levels, kept
	// as a secondary aggregate.
	LevelSpanMean float64
	// Makespan is the full workflow span.
	Makespan float64

	// Utilizations.
	CoreUtil, GPUUtil float64

	// DAG shape features for the correlation analysis.
	DAGWidth, DAGHeight int
	// Complexity is the headline task's parallel op count (the
	// "computational complexity" feature).
	Complexity float64
}

// buildWorkflow returns the workload for a cell, shared through the
// engine's workflow table when ctx is a runner trial's (runner.Workflow):
// no execution factor of a cell changes its DAG, so cells differing only
// in device, storage, policy, cluster or faults run one frozen workflow.
func buildWorkflow(ctx context.Context, cfg CellConfig) (*runtime.Workflow, error) {
	switch cfg.Algorithm {
	case Matmul:
		return runner.Workflow(ctx, matmul.Config{Dataset: cfg.Dataset, Grid: cfg.Grid}, matmul.Build)
	case MatmulFMA:
		return runner.Workflow(ctx, matmul.Config{Dataset: cfg.Dataset, Grid: cfg.Grid, Variant: matmul.FMA}, matmul.Build)
	case KMeans:
		return runner.Workflow(ctx, kmeans.Config{
			Dataset: cfg.Dataset, Grid: cfg.Grid,
			Clusters: cfg.Clusters, Iterations: cfg.Iterations,
		}, kmeans.Build)
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %d", cfg.Algorithm)
	}
}

// cellScratch is per-worker state reused across RunCell trials: the
// simulation arena plus the streaming aggregator. Allocated once per
// runner slot; every later cell on that slot pays zero substrate and
// aggregator setup.
type cellScratch struct {
	arena runtime.Arena
	agg   *metrics.Aggregates
}

// scratchOf returns the worker slot's cellScratch, creating and stashing
// one on first use; nil ctx or a non-worker ctx yields a fresh throwaway.
func scratchOf(ctx context.Context) *cellScratch {
	slot := runner.WorkerSlot(ctx)
	if slot == nil {
		return &cellScratch{agg: metrics.NewAggregates()}
	}
	if sc, ok := slot.Value().(*cellScratch); ok {
		return sc
	}
	sc := &cellScratch{agg: metrics.NewAggregates()}
	slot.Set(sc)
	return sc
}

// RunCell executes one factor combination on the simulator and aggregates
// the paper's metrics. OOM configurations return a Cell with OOM set
// rather than an error, mirroring the figures' annotations.
func RunCell(cfg CellConfig) (Cell, error) {
	return RunCellOn(context.Background(), cfg)
}

// RunCellOn is RunCell for a trial running on a runner worker: the cell
// reuses the worker slot's simulation arena and aggregator, and the
// engine's built workflows, as RunCells trials do, so a service answering
// one cell per trial warms them once per worker instead of once per
// cell. Outside a worker it is RunCell.
//
// Records stream into the scratch aggregator as the simulation produces
// them — the run never materializes a per-task record table — and every
// aggregate query below reproduces the Collector arithmetic bit-for-bit
// (see metrics.Aggregates), so cells are byte-identical to the
// retained-records implementation; the golden figure fixtures pin this.
func RunCellOn(ctx context.Context, cfg CellConfig) (Cell, error) {
	wf, err := buildWorkflow(ctx, cfg)
	if err != nil {
		return Cell{}, err
	}
	widths := wf.LevelWidths()
	cell := Cell{
		CellConfig: cfg,
		Tasks:      wf.Graph.Len(),
		DAGHeight:  len(widths),
	}
	for _, w := range widths {
		cell.DAGWidth = max(cell.DAGWidth, w)
	}
	part, err := partitionOf(cfg)
	if err != nil {
		return Cell{}, err
	}
	cell.BlockBytes = part.BlockBytes()
	cell.GridString = part.GridString()
	cell.Complexity = headlineComplexity(cfg, part)

	scratch := scratchOf(ctx)
	scratch.agg.Reset()
	res, err := runtime.RunSim(wf, runtime.SimConfig{
		Cluster: cfg.Cluster,
		Params:  cfg.Params,
		Storage: cfg.Storage,
		Policy:  cfg.Policy,
		Device:  cfg.Device,
		Seed:    cfg.Seed,
		Faults:  cfg.Faults,
		Sink:    scratch.agg,
		Arena:   &scratch.arena,
	})
	if err != nil {
		if runtime.ErrOOM(err) {
			cell.OOM = true
			cell.HostOOM = cfg.Device == costmodel.CPU
			return cell, nil
		}
		return Cell{}, err
	}

	c := scratch.agg
	head := cfg.Algorithm.HeadlineTask()
	cell.PFracMean, _ = c.MeanStage(head, metrics.StageParallel)
	cell.SerialMean, _ = c.MeanStage(head, metrics.StageSerial)
	in, _ := c.MeanStage(head, metrics.StageCommIn)
	out, _ := c.MeanStage(head, metrics.StageCommOut)
	cell.CommMean = in + out
	cell.UserMean = cell.PFracMean + cell.SerialMean + cell.CommMean

	if cfg.Algorithm == Matmul {
		cell.SecondPFrac, _ = c.MeanStage("add_func", metrics.StageParallel)
		ain, _ := c.MeanStage("add_func", metrics.StageCommIn)
		aout, _ := c.MeanStage("add_func", metrics.StageCommOut)
		cell.SecondComm = ain + aout
		aser, _ := c.MeanStage("add_func", metrics.StageSerial)
		cell.SecondUser = cell.SecondPFrac + cell.SecondComm + aser
	}

	cell.DeserPerCore = c.MovementPerCore(metrics.StageDeser)
	cell.SerPerCore = c.MovementPerCore(metrics.StageSer)
	cell.LevelSpanMean = c.MeanLevelSpan()
	iters := 1
	if cfg.Algorithm == KMeans {
		iters = cfg.Iterations
		if iters == 0 {
			iters = 5 // the kmeans package default
		}
	}
	cell.PTaskMean = res.Makespan / float64(iters)
	cell.Makespan = res.Makespan
	cell.CoreUtil = res.CoreUtilization
	cell.GPUUtil = res.GPUUtilization
	return cell, nil
}

func partitionOf(cfg CellConfig) (dataset.Partition, error) {
	if cfg.Algorithm == KMeans {
		return dataset.ByGrid(cfg.Dataset, cfg.Grid, 1)
	}
	return dataset.ByGrid(cfg.Dataset, cfg.Grid, cfg.Grid)
}

func headlineComplexity(cfg CellConfig, part dataset.Partition) float64 {
	if cfg.Algorithm == KMeans {
		k := cfg.Clusters
		if k == 0 {
			k = 10
		}
		return kmeans.PartialSumProfile(part.BlockRows, part.BlockCols, k).ParallelOps
	}
	if cfg.Algorithm == MatmulFMA {
		return matmul.FMAProfile(part.BlockRows).ParallelOps
	}
	mm, _ := matmul.Profiles(part.BlockRows)
	return mm.ParallelOps
}

// VirtualSeconds reports the cell's simulated time to the trial engine's
// virtual-time accounting.
func (c Cell) VirtualSeconds() float64 { return c.Makespan }

// CellKey is the canonical key of a factor combination: two configs with
// equal keys are guaranteed to simulate identically (the simulator is
// deterministic and the config captures every input), so the trial
// engine runs them once and shares the cell. The key is stable across
// processes and struct-field refactors (resultcache canonical encoding),
// which is what lets the persistent cache serve cells across runs.
func CellKey(cfg CellConfig) string {
	return resultcache.KeyOf("cell", cfg).Hex()
}

// RunPair runs the same configuration on CPU and GPU and returns both
// cells — the head-to-head comparison every speedup chart needs.
func RunPair(cfg CellConfig) (cpu, gpu Cell, err error) {
	return runPair(context.Background(), cfg)
}

// runPair is RunPair on ctx: inside a runner trial both cells share the
// worker's scratch and one built workflow.
func runPair(ctx context.Context, cfg CellConfig) (cpu, gpu Cell, err error) {
	cfg.Device = costmodel.CPU
	cpu, err = RunCellOn(ctx, cfg)
	if err != nil {
		return
	}
	cfg.Device = costmodel.GPU
	gpu, err = RunCellOn(ctx, cfg)
	return
}

// RunCells executes one RunCell trial per configuration on the engine,
// returning cells in configuration order. Identical configurations are
// simulated once and shared (CellKey memoization).
func RunCells(ctx context.Context, eng *runner.Engine, label string, cfgs []CellConfig) ([]Cell, error) {
	return runner.Map(ctx, eng, label, cfgs, CellKey, RunCellOn)
}

// Pair is a CPU/GPU cell pair for one factor combination.
type Pair struct {
	CPU, GPU Cell
}

// RunPairs expands each configuration into its CPU and GPU variants and
// executes all resulting cells as one trial set, returning pairs in
// configuration order. This is the parallel, batched form of RunPair.
func RunPairs(ctx context.Context, eng *runner.Engine, label string, cfgs []CellConfig) ([]Pair, error) {
	expanded := make([]CellConfig, 0, 2*len(cfgs))
	for _, cfg := range cfgs {
		cpu := cfg
		cpu.Device = costmodel.CPU
		gpu := cfg
		gpu.Device = costmodel.GPU
		expanded = append(expanded, cpu, gpu)
	}
	cells, err := RunCells(ctx, eng, label, expanded)
	if err != nil {
		return nil, err
	}
	pairs := make([]Pair, len(cfgs))
	for i := range pairs {
		pairs[i] = Pair{CPU: cells[2*i], GPU: cells[2*i+1]}
	}
	return pairs, nil
}

// Speedup returns tCPU/tGPU guarding zeros.
func Speedup(tCPU, tGPU float64) float64 { return costmodel.Speedup(tCPU, tGPU) }

// clusterSpec is a small helper for hypothetical-topology ablations.
func clusterSpec(nodes, cores, gpus int) cluster.Spec {
	return cluster.Spec{Name: "ablation", Nodes: nodes, CoresPerNode: cores, GPUsPerNode: gpus}
}
