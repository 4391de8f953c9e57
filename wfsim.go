// Package wfsim is a task-based workflow runtime and heterogeneous
// CPU-GPU cluster simulator: a from-scratch Go reproduction of
// "Performance Analysis of Distributed GPU-Accelerated Task-Based
// Workflows" (EDBT 2024).
//
// The package re-exports the stable public surface:
//
//   - Workflow construction and the two execution backends (a deterministic
//     discrete-event cluster simulator and a real goroutine-pool executor);
//   - the block-partitioned dataset abstraction (dislib-style ds-arrays);
//   - the calibrated cost model of the paper's Minotauro testbed;
//   - the paper's workloads (blocked Matmul, distributed K-means);
//   - every experiment of the paper's evaluation, runnable by ID.
//
// Quick start:
//
//	wf, _ := wfsim.BuildKMeans(wfsim.KMeansConfig{
//		Dataset: wfsim.Datasets.KMeansSmall, Grid: 256, Clusters: 10,
//	})
//	res, _ := wfsim.RunSim(wf, wfsim.SimConfig{Device: wfsim.GPU})
//	fmt.Println(res.Makespan)
//
// See examples/ for runnable programs and DESIGN.md for the system
// inventory and the paper-to-module map.
package wfsim

import (
	"wfsim/internal/apps/kmeans"
	"wfsim/internal/apps/linreg"
	"wfsim/internal/apps/matmul"
	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
	"wfsim/internal/dsarray"
	"wfsim/internal/experiments"
	"wfsim/internal/faults"
	"wfsim/internal/metrics"
	"wfsim/internal/model"
	"wfsim/internal/runner"
	"wfsim/internal/runtime"
	"wfsim/internal/sched"
	"wfsim/internal/service"
	"wfsim/internal/storage"
)

// Core workflow types.
type (
	// Workflow is an application expressed as tasks over named data.
	Workflow = runtime.Workflow
	// TaskSpec couples a task's analytic cost profile with its real kernel.
	TaskSpec = runtime.TaskSpec
	// Store is the local backend's in-memory data space.
	Store = runtime.Store
	// SimConfig selects the simulated environment (cluster, storage,
	// scheduler, processor type).
	SimConfig = runtime.SimConfig
	// SimResult carries simulated metrics.
	SimResult = runtime.SimResult
	// FaultConfig parameterizes deterministic failure injection
	// (SimConfig.Faults); the zero value disables it.
	FaultConfig = faults.Config
	// FaultStats summarizes injected failures and recovery cost
	// (SimResult.Faults).
	FaultStats = runtime.FaultStats
	// Arena recycles a run's substrate allocations across trials
	// (SimConfig.Arena); one run at a time per arena.
	Arena = runtime.Arena
	// MetricsSink consumes stage records as a run produces them
	// (SimConfig.Sink); use Aggregates for O(1)-memory streaming runs.
	MetricsSink = metrics.Sink
	// Aggregates is a streaming MetricsSink that folds records into the
	// paper's aggregate metrics on the fly, bit-for-bit equal to querying
	// a retained-records collector.
	Aggregates = metrics.Aggregates
	// LocalConfig controls real execution.
	LocalConfig = runtime.LocalConfig
	// LocalResult carries real-execution results.
	LocalResult = runtime.LocalResult
	// Param declares a task's data access (name + direction).
	Param = dag.Param
	// Profile is a task's analytic cost profile.
	Profile = costmodel.Profile
	// Params are the calibrated testbed constants.
	Params = costmodel.Params
	// ClusterSpec describes a cluster topology.
	ClusterSpec = cluster.Spec
	// Dataset describes a dense float64 matrix.
	Dataset = dataset.Dataset
	// Block is one materialized (or lazy) tile of a dataset.
	Block = dataset.Block
	// BlockID addresses a block within a grid.
	BlockID = dataset.BlockID
	// Partition is a grid layout of a dataset.
	Partition = dataset.Partition
	// Generator produces reproducible synthetic data.
	Generator = dataset.Generator
	// Experiment is one reproducible paper artifact.
	Experiment = experiments.Experiment
	// Runner executes experiment trials on a bounded worker pool with
	// cancellation and memoization.
	Runner = runner.Engine
)

// Parameter directions (PyCOMPSs-style).
const (
	In    = dag.In
	Out   = dag.Out
	InOut = dag.InOut
)

// Processor types (the paper's Table 1 factor f).
const (
	CPU = costmodel.CPU
	GPU = costmodel.GPU
)

// Storage architectures (factor g).
const (
	SharedDisk = storage.Shared
	LocalDisk  = storage.Local
)

// Scheduling policies (factor h). The first four are the paper's
// COMPSs-style baselines; the rest are the lookahead and work-stealing
// extensions studied under the calibrated dispatch-cost model (ext6).
const (
	GenerationOrder = sched.FIFO
	DataLocality    = sched.Locality
	LIFO            = sched.LIFO
	RandomPlacement = sched.Random
	HEFT            = sched.HEFT
	BLevel          = sched.BLevel
	MinMin          = sched.MinMin
	WorkStealing    = sched.WorkSteal
)

// NewWorkflow returns an empty workflow.
func NewWorkflow(name string) *Workflow { return runtime.NewWorkflow(name) }

// NewAggregates returns an empty streaming metrics aggregator.
func NewAggregates() *Aggregates { return metrics.NewAggregates() }

// RunSim executes the workflow on the simulated cluster.
func RunSim(wf *Workflow, cfg SimConfig) (*SimResult, error) { return runtime.RunSim(wf, cfg) }

// RunLocal executes the workflow's real kernels on a goroutine pool.
func RunLocal(wf *Workflow, cfg LocalConfig) (*LocalResult, error) { return runtime.RunLocal(wf, cfg) }

// Minotauro returns the paper's cluster topology (8 nodes × 16 cores ×
// 4 GPUs).
func Minotauro() ClusterSpec { return cluster.Minotauro() }

// DefaultParams returns the calibrated testbed model.
func DefaultParams() Params { return costmodel.DefaultParams() }

// NewBlock allocates a materialized zero block of the given shape.
func NewBlock(id BlockID, rows, cols int64) *Block { return dataset.NewBlock(id, rows, cols) }

// NewGenerator returns a seeded uniform data generator.
func NewGenerator(seed uint64) *Generator { return dataset.NewGenerator(seed) }

// NewSkewedGenerator returns a seeded 50%-skew generator (Figure 9b).
func NewSkewedGenerator(seed uint64) *Generator { return dataset.NewSkewedGenerator(seed) }

// ByGrid partitions a dataset into a k×l grid (Eq. (1) of the paper).
func ByGrid(d Dataset, k, l int64) (Partition, error) { return dataset.ByGrid(d, k, l) }

// ByBlock partitions a dataset by block dimension (Eq. (2) of the paper).
func ByBlock(d Dataset, m, n int64) (Partition, error) { return dataset.ByBlock(d, m, n) }

// Workload configs.
type (
	// MatmulConfig parameterizes a blocked matrix multiplication.
	MatmulConfig = matmul.Config
	// KMeansConfig parameterizes a distributed K-means.
	KMeansConfig = kmeans.Config
)

// BuildMatmul constructs a dislib-style blocked Matmul workflow.
func BuildMatmul(cfg MatmulConfig) (*Workflow, error) { return matmul.Build(cfg) }

// BuildKMeans constructs a dislib-style distributed K-means workflow.
func BuildKMeans(cfg KMeansConfig) (*Workflow, error) { return kmeans.Build(cfg) }

// Datasets groups the paper's preset datasets.
var Datasets = struct {
	MatmulSmall, MatmulLarge, MatmulSkew, MatmulTiny Dataset
	KMeansSmall, KMeansLarge, KMeansSkew, KMeansTiny Dataset
}{
	dataset.MatmulSmall, dataset.MatmulLarge, dataset.MatmulSkew, dataset.MatmulTiny,
	dataset.KMeansSmall, dataset.KMeansLarge, dataset.KMeansSkew, dataset.KMeansTiny,
}

// NewRunner returns a trial-execution engine with the given worker count
// (0 or negative = all CPUs). Pass it to Experiment.Run; sharing one
// engine across experiments shares its memoization cache.
func NewRunner(workers int) *Runner { return runner.New(workers) }

// ExperimentByID returns a paper experiment (fig1, fig7a, ... table1).
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// AllExperiments lists every registered paper experiment.
func AllExperiments() []Experiment { return experiments.All() }

// Advisor re-exports the analytic device-selection model (§5.4.3 "toward
// automated design"): closed-form predictions of whether GPU offload pays
// off for a task profile, validated against the simulator.
type Advisor = model.Advisor

// Recommendation is the advisor's verdict for a task profile.
type Recommendation = model.Recommendation

// NewAdvisor returns an advisor for the paper's default environment
// (Minotauro, shared disk).
func NewAdvisor() *Advisor { return model.NewAdvisor() }

// Breakdown decomposes a task profile's user-code time analytically
// (serial/parallel/communication, Amdahl limit) without simulation.
func Breakdown(p Params, prof Profile) model.UserCodeBreakdown { return model.Breakdown(p, prof) }

// ArrayContext is the dislib-style distributed-array layer (§3.5 of the
// paper): compose block-partitioned matrix expressions and the runtime
// derives the task DAG.
type ArrayContext = dsarray.Context

// Array is a handle to a block-partitioned matrix within an ArrayContext.
type Array = dsarray.Array

// NewArrayContext creates a distributed-array context; materialize selects
// real blocks (local backend) vs metadata-only (simulation).
func NewArrayContext(name string, materialize bool) *ArrayContext {
	return dsarray.New(name, materialize)
}

// LinRegConfig parameterizes distributed linear regression via local
// gradient descent — the third algorithm on the parallel-fraction spectrum
// (the paper's §5.5.1 extension direction).
type LinRegConfig = linreg.Config

// BuildLinReg constructs a distributed linear-regression workflow.
func BuildLinReg(cfg LinRegConfig) (*Workflow, error) { return linreg.Build(cfg) }

// Multi-tenant online simulation: one shared simulated cluster serving a
// stream of workflows from several tenants, with weighted fair-share
// dispatch, admission quotas and streaming service metrics.
type (
	// ServiceConfig parameterizes an online service run (cluster, seed,
	// tenant workload streams).
	ServiceConfig = service.Config
	// ServiceTenant describes one workload stream: fair-share weight,
	// admission quota, Poisson rate or interarrival trace, and the
	// workflow builder.
	ServiceTenant = service.Tenant
	// ServiceResult carries per-tenant queue-wait / response / slowdown
	// distributions plus horizon and utilization.
	ServiceResult = service.Result
	// TenantReport is one tenant's service-level outcome.
	TenantReport = service.TenantReport
	// ClusterSim is the lower-level substrate: submit workflows at chosen
	// virtual instants onto one shared cluster and collect per-workflow
	// results as they finish.
	ClusterSim = runtime.ClusterSim
	// TenantSpec configures one ClusterSim tenant (weight, quota).
	TenantSpec = runtime.TenantSpec
	// WorkflowResult is one completed workflow's outcome in a ClusterSim.
	WorkflowResult = runtime.WorkflowResult
)

// RunService executes the configured arrival streams on one shared
// cluster and returns per-tenant service statistics. Deterministic in
// (config, seed).
func RunService(cfg ServiceConfig) (*ServiceResult, error) { return service.Run(cfg) }

// NewClusterSim builds a shared-cluster simulation ready to accept
// workflow submissions from the given tenants.
func NewClusterSim(cfg SimConfig, tenants []TenantSpec) (*ClusterSim, error) {
	return runtime.NewClusterSim(cfg, tenants)
}
