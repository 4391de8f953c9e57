package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/apps/matmul"
	"wfsim/internal/dataset"
	"wfsim/internal/metrics"
	"wfsim/internal/runner"
	"wfsim/internal/runtime"
	"wfsim/internal/tables"
)

// Fig9aResult reproduces Figure 9a: the effect of the algorithm-specific
// parameter (#clusters) on K-means user-code performance. Speedups grow
// with K — whose impact on the O(M·N·K²) parallel fraction is quadratic
// while the serial fraction grows only linearly — and are insensitive to
// block size; large K × large blocks exhaust GPU and eventually host
// memory.
type Fig9aResult struct {
	// Sweeps indexed by cluster count (10, 100, 1000).
	Clusters []int64
	Sweeps   []DatasetSweep
}

func runFig9a(ctx context.Context, eng *runner.Engine) (Result, error) {
	r := &Fig9aResult{Clusters: []int64{10, 100, 1000}}
	// All three cluster counts form one flat trial set, so the full
	// 3 × |grids| × {CPU, GPU} sweep parallelizes as a unit.
	var cfgs []CellConfig
	for _, k := range r.Clusters {
		cfgs = append(cfgs, sweepConfigs(KMeans, dataset.KMeansSmall, dataset.KMeansGrids, k)...)
	}
	pairs, err := RunPairs(ctx, eng, "fig9a", cfgs)
	if err != nil {
		return nil, err
	}
	perSweep := len(dataset.KMeansGrids)
	for s := range r.Clusters {
		sw := DatasetSweep{Dataset: dataset.KMeansSmall}
		for _, p := range pairs[s*perSweep : (s+1)*perSweep] {
			sw.Points = append(sw.Points, sweepPoint(p))
		}
		r.Sweeps = append(r.Sweeps, sw)
	}
	return r, nil
}

// Render implements Result.
func (r *Fig9aResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9a: effect of #clusters on K-means user code (10 GB dataset)\n\n")
	t := tables.New("User-code GPU speedup over CPU",
		append([]string{"block size"}, clustersHeaders(r.Clusters)...)...)
	for i := range r.Sweeps[0].Points {
		row := []string{dataset.FormatBytes(r.Sweeps[0].Points[i].CPU.BlockBytes)}
		for s := range r.Sweeps {
			p := r.Sweeps[s].Points[i]
			if lbl := p.OOMLabel(); lbl != "" {
				row = append(row, lbl)
			} else {
				row = append(row, tables.FormatSpeedup(p.UserSpd))
			}
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())

	for s, k := range r.Clusters {
		d := tables.New(fmt.Sprintf("\nAverage time per task (s), %d clusters", k),
			"block size", "P.Frac CPU", "S.Frac", "P.Frac GPU", "CPU-GPU Comm")
		for _, p := range r.Sweeps[s].Points {
			if p.CPU.OOM || p.GPU.OOM {
				d.AddRow(dataset.FormatBytes(p.CPU.BlockBytes), p.OOMLabel(), "", "", "")
				continue
			}
			d.AddRow(
				dataset.FormatBytes(p.CPU.BlockBytes),
				tables.FormatFloat(p.CPU.PFracMean),
				tables.FormatFloat(p.CPU.SerialMean),
				tables.FormatFloat(p.GPU.PFracMean),
				tables.FormatFloat(p.GPU.CommMean),
			)
		}
		b.WriteString(d.String())
	}
	return b.String()
}

func clustersHeaders(ks []int64) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprintf("%d clusters", k)
	}
	return out
}

// Fig9bPoint is one skew-experiment measurement: real (not simulated)
// user-code wall-clock per task, uniform vs 50%-skewed data.
type Fig9bPoint struct {
	Algorithm Algorithm
	Grid      int64
	BlockMB   float64
	// UniformSec and SkewedSec are mean per-task wall-clock times of the
	// real kernels on materialized data.
	UniformSec, SkewedSec float64
}

// Delta returns the relative difference |skewed-uniform|/uniform.
func (p Fig9bPoint) Delta() float64 {
	if p.UniformSec == 0 {
		return math.NaN()
	}
	return math.Abs(p.SkewedSec-p.UniformSec) / p.UniformSec
}

// Fig9bResult reproduces Figure 9b: the effect of data skew. The paper
// finds task user-code times unchanged between 0% and 50% skew because the
// algorithms do not process skewed data differently. Our simulator's cost
// model is value-independent by construction (matching that finding), so
// this experiment validates it with *real* kernel executions on
// materialized data at a reduced scale: per-task times must match across
// distributions.
type Fig9bResult struct {
	Points []Fig9bPoint
}

// fig9bScale is the real-execution dataset scale (the paper used 2 GB /
// 1 GB on its cluster; the local backend runs a host-sized equivalent that
// exercises the identical kernels).
var fig9bMatmulDS = dataset.Dataset{Name: "matmul-skew-real", Rows: 1024, Cols: 1024}
var fig9bKMeansDS = dataset.Dataset{Name: "kmeans-skew-real", Rows: 300_000, Cols: 40}

// fig9bSpec names one skew-comparison trial.
type fig9bSpec struct {
	alg  Algorithm
	grid int64
}

func runFig9b(ctx context.Context, eng *runner.Engine) (Result, error) {
	specs := []fig9bSpec{
		{Matmul, 2}, {Matmul, 4},
		{KMeans, 4}, {KMeans, 8},
	}
	// Each spec is one trial (a full interleaved uniform-vs-skew
	// comparison of real kernel runs). Never memoized: these measure
	// wall-clock, not the deterministic simulator.
	points, err := runner.Map(ctx, eng, "fig9b", specs, nil,
		func(_ context.Context, s fig9bSpec) (Fig9bPoint, error) {
			if s.alg == Matmul {
				return skewPointMatmul(s.grid)
			}
			return skewPointKMeans(s.grid)
		})
	if err != nil {
		return nil, err
	}
	return &Fig9bResult{Points: points}, nil
}

// measureOnce runs the workflow's real kernels once and returns the mean
// user-code wall time per task of the headline type.
func measureOnce(build func() (*runtime.Workflow, error), headline string) (float64, error) {
	wf, err := build()
	if err != nil {
		return 0, err
	}
	res, err := runtime.RunLocal(wf, runtime.LocalConfig{})
	if err != nil {
		return 0, err
	}
	mean, n := res.Collector.MeanStage(headline, metrics.StageParallel)
	if n == 0 {
		return 0, fmt.Errorf("no %s tasks ran", headline)
	}
	return mean, nil
}

// comparePair measures two workflow variants with interleaved repetitions
// (A, B, A, B, ...), taking each variant's minimum — interleaving cancels
// systematic wall-clock drift (GC pressure, page-cache warmth) that would
// bias a sequential A-then-B comparison.
func comparePair(buildA, buildB func() (*runtime.Workflow, error), headline string, reps int) (a, b float64, err error) {
	a, b = math.Inf(1), math.Inf(1)
	for i := 0; i < reps; i++ {
		va, err := measureOnce(buildA, headline)
		if err != nil {
			return 0, 0, err
		}
		vb, err := measureOnce(buildB, headline)
		if err != nil {
			return 0, 0, err
		}
		a = math.Min(a, va)
		b = math.Min(b, vb)
	}
	return a, b, nil
}

func skewPointMatmul(grid int64) (Fig9bPoint, error) {
	part, err := dataset.ByGrid(fig9bMatmulDS, grid, grid)
	if err != nil {
		return Fig9bPoint{}, err
	}
	pt := Fig9bPoint{Algorithm: Matmul, Grid: grid, BlockMB: float64(part.BlockBytes()) / (1 << 20)}
	build := func(gen *dataset.Generator) func() (*runtime.Workflow, error) {
		return func() (*runtime.Workflow, error) {
			return matmul.Build(matmul.Config{
				Dataset: fig9bMatmulDS, Grid: grid, Materialize: true, Generator: gen,
			})
		}
	}
	pt.UniformSec, pt.SkewedSec, err = comparePair(
		build(dataset.NewGenerator(42)), build(dataset.NewSkewedGenerator(42)), "matmul_func", 5)
	return pt, err
}

func skewPointKMeans(grid int64) (Fig9bPoint, error) {
	part, err := dataset.ByGrid(fig9bKMeansDS, grid, 1)
	if err != nil {
		return Fig9bPoint{}, err
	}
	pt := Fig9bPoint{Algorithm: KMeans, Grid: grid, BlockMB: float64(part.BlockBytes()) / (1 << 20)}
	build := func(gen *dataset.Generator) func() (*runtime.Workflow, error) {
		return func() (*runtime.Workflow, error) {
			return kmeans.Build(kmeans.Config{
				Dataset: fig9bKMeansDS, Grid: grid, Clusters: 10, Iterations: 2,
				Materialize: true, Generator: gen, RawData: true,
			})
		}
	}
	pt.UniformSec, pt.SkewedSec, err = comparePair(
		build(dataset.NewGenerator(42)), build(dataset.NewSkewedGenerator(42)), "partial_sum", 5)
	return pt, err
}

// Render implements Result.
func (r *Fig9bResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9b: effect of data skew on task user code (real kernel execution)\n")
	b.WriteString("(0% vs 50% skew; the paper finds no effect — deltas should be noise-level)\n\n")
	t := tables.New("Mean user-code time per task (s)",
		"algorithm", "grid", "block", "0% skew", "50% skew", "delta")
	for _, p := range r.Points {
		t.AddRow(
			p.Algorithm.String(),
			fmt.Sprint(p.Grid),
			fmt.Sprintf("%.1fMB", p.BlockMB),
			tables.FormatFloat(p.UniformSec),
			tables.FormatFloat(p.SkewedSec),
			fmt.Sprintf("%.1f%%", p.Delta()*100),
		)
	}
	b.WriteString(t.String())
	b.WriteString("\nSimulated (paper-scale) runs are value-independent by construction:\n")
	b.WriteString("the cost model depends on block shapes only, matching the paper's finding.\n")
	return b.String()
}

func init() {
	register(Experiment{
		ID:    "fig9a",
		Title: "Figure 9a: effect of #clusters (algorithm-specific parameter) in K-means",
		Run:   runFig9a,
	})
	register(Experiment{
		ID:    "fig9b",
		Title: "Figure 9b: effect of data skew in Matmul and K-means (real execution)",
		Run:   runFig9b,
	})
}
