package experiments

import (
	"context"
	"fmt"
	"strings"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/apps/linreg"
	"wfsim/internal/apps/matmul"
	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/metrics"
	"wfsim/internal/model"
	"wfsim/internal/resultcache"
	"wfsim/internal/runner"
	"wfsim/internal/runtime"
	"wfsim/internal/tables"
)

// Ext1Point is one algorithm's position on the parallel-fraction spectrum.
type Ext1Point struct {
	Name string
	// ParallelFraction is the Amdahl f of the task user code on CPU.
	ParallelFraction float64
	// UserSpeedup is the analytic user-code GPU speedup.
	UserSpeedup float64
	// AmdahlLimit bounds the speedup achievable with free, infinitely
	// fast offload.
	AmdahlLimit float64
	// SimSpeedup is the simulator-measured user-code speedup (validation
	// of the analytic value).
	SimSpeedup float64
}

// Ext1Result is the §5.5.1 generalizability extension: the paper studies
// two extreme algorithm families and calls for "more data points between
// the two extreme cases". This experiment places a third algorithm —
// distributed linear regression with local gradient descent — on the
// spectrum between K-means (serial-heavy) and Matmul (fully parallel), and
// shows user-code GPU speedup tracking the parallel fraction, the paper's
// proposed decision signal ("devise a method to decide when it is worth
// exploiting GPUs based on the ratio of parallel / serial code").
type Ext1Result struct {
	Points []Ext1Point
}

func runExt1(ctx context.Context, eng *runner.Engine) (Result, error) {
	params := costmodel.DefaultParams()
	part, err := dataset.ByGrid(dataset.KMeansSmall, 256, 1)
	if err != nil {
		return nil, err
	}
	mmProf, _ := matmul.Profiles(16384)
	specs := []struct {
		name string
		prof costmodel.Profile
		cell CellConfig
	}{
		{
			name: "kmeans (partial_sum, K=10)",
			prof: kmeans.PartialSumProfile(part.BlockRows, part.BlockCols, 10),
			cell: CellConfig{Algorithm: KMeans, Dataset: dataset.KMeansSmall, Grid: 256, Clusters: 10},
		},
		{
			name: "linreg (gradient, E=10)",
			prof: linreg.GradientProfile(part.BlockRows, part.BlockCols, 10),
		},
		{
			name: "kmeans (partial_sum, K=100)",
			prof: kmeans.PartialSumProfile(part.BlockRows, part.BlockCols, 100),
			cell: CellConfig{Algorithm: KMeans, Dataset: dataset.KMeansSmall, Grid: 256, Clusters: 100},
		},
		{
			name: "matmul (matmul_func, 2GB blocks)",
			prof: mmProf,
			cell: CellConfig{Algorithm: Matmul, Dataset: dataset.MatmulSmall, Grid: 2},
		},
	}
	// Each spectrum point's simulated speedup is one self-contained
	// trial closure; the analytic breakdown is computed inline (cheap).
	trials := make([]runner.Trial, len(specs))
	for i, s := range specs {
		cell := s.cell
		if cell.Dataset.Rows > 0 {
			trials[i] = runner.Trial{
				ID:    "ext1:" + s.name,
				Key:   resultcache.KeyOf("ext1pair", cell).Hex(),
				Codec: runner.JSONCodec[float64](),
				Run: func(ctx context.Context) (any, error) {
					cpu, gpu, err := runPair(ctx, cell)
					if err != nil {
						return nil, err
					}
					if cpu.OOM || gpu.OOM {
						return 0.0, nil
					}
					return Speedup(cpu.UserMean, gpu.UserMean), nil
				},
			}
		} else {
			// linreg: simulate directly (not a Cell algorithm). The config
			// is pinned inside linregSimSpeedup; the key names it exactly.
			trials[i] = runner.Trial{
				ID:    "ext1:" + s.name,
				Key:   resultcache.KeyOf("ext1linreg", dataset.KMeansSmall, int64(256), 2).Hex(),
				Codec: runner.JSONCodec[float64](),
				Run: func(ctx context.Context) (any, error) {
					return linregSimSpeedup(ctx)
				},
			}
		}
	}
	rep, err := eng.Run(ctx, trials)
	if err != nil {
		return nil, err
	}

	r := &Ext1Result{}
	for i, s := range specs {
		b := model.Breakdown(params, s.prof)
		r.Points = append(r.Points, Ext1Point{
			Name:             s.name,
			ParallelFraction: b.ParallelFraction,
			UserSpeedup:      b.UserCodeSpeedup,
			AmdahlLimit:      b.AmdahlLimit,
			SimSpeedup:       rep.Outcomes[i].Value.(float64),
		})
	}
	return r, nil
}

func linregSimSpeedup(ctx context.Context) (float64, error) {
	span := func(dev costmodel.DeviceKind) (float64, error) {
		wf, err := runner.Workflow(ctx, linreg.Config{
			Dataset: dataset.KMeansSmall, Grid: 256, Iterations: 2,
		}, linreg.Build)
		if err != nil {
			return 0, err
		}
		res, err := runtime.RunSim(wf, runtime.SimConfig{Device: dev})
		if err != nil {
			return 0, err
		}
		par, _ := res.Collector.MeanStage("gradient", metrics.StageParallel)
		ser, _ := res.Collector.MeanStage("gradient", metrics.StageSerial)
		in, _ := res.Collector.MeanStage("gradient", metrics.StageCommIn)
		out, _ := res.Collector.MeanStage("gradient", metrics.StageCommOut)
		return par + ser + in + out, nil
	}
	cpu, err := span(costmodel.CPU)
	if err != nil {
		return 0, err
	}
	gpu, err := span(costmodel.GPU)
	if err != nil {
		return 0, err
	}
	return Speedup(cpu, gpu), nil
}

// Render implements Result.
func (r *Ext1Result) Render() string {
	var b strings.Builder
	b.WriteString("Extension (§5.5.1): the parallel-fraction spectrum\n")
	b.WriteString("(a third algorithm between the paper's two extremes; speedups track the\n")
	b.WriteString(" parallel/serial ratio — the paper's proposed offload-decision signal)\n\n")
	t := tables.New("User-code GPU speedup vs parallel fraction",
		"algorithm", "parallel fraction", "analytic speedup", "Amdahl limit", "simulated speedup")
	for _, p := range r.Points {
		limit := "∞"
		if p.AmdahlLimit < 1e6 {
			limit = tables.FormatSpeedup(p.AmdahlLimit)
		}
		t.AddRow(p.Name,
			fmt.Sprintf("%.0f%%", p.ParallelFraction*100),
			tables.FormatSpeedup(p.UserSpeedup),
			limit,
			tables.FormatSpeedup(p.SimSpeedup))
	}
	b.WriteString(t.String())
	return b.String()
}

func init() {
	register(Experiment{
		ID:    "ext1",
		Title: "Extension: parallel-fraction spectrum with a third algorithm (§5.5.1 future work)",
		Run:   runExt1,
	})
}
