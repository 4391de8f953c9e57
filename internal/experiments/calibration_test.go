package experiments

import (
	"context"
	"math"
	"sync"
	"testing"

	"wfsim/internal/dataset"
	"wfsim/internal/runner"
)

// These tests pin the reproduction targets from DESIGN.md §3: each asserts
// that a paper headline *shape* (who wins, by what factor, where the
// crossovers and OOMs fall) holds on the calibrated simulator. Bands are
// deliberately loose — the substrate is a simulator, not the authors'
// testbed — but tight enough that a regression in the runtime, cost model
// or scheduler breaks them.

func mustRun(t *testing.T, id string) Result {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), runner.New(0))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fig9bOnce holds the one fig9b run of the test binary: the experiment
// times real kernels on the host for tens of seconds, so the calibration
// and render tests assert on a shared run instead of timing it twice.
var fig9bOnce struct {
	sync.Once
	res Result
	err error
}

// fig9b returns the shared fig9b result, running the experiment on first
// use.
func fig9b(t *testing.T) *Fig9bResult {
	t.Helper()
	fig9bOnce.Do(func() {
		e, err := ByID("fig9b")
		if err != nil {
			fig9bOnce.err = err
			return
		}
		fig9bOnce.res, fig9bOnce.err = e.Run(context.Background(), runner.New(0))
	})
	if fig9bOnce.err != nil {
		t.Fatal(fig9bOnce.err)
	}
	return fig9bOnce.res.(*Fig9bResult)
}

func TestCalibrationFig1(t *testing.T) {
	r := mustRun(t, "fig1").(*Fig1Result)
	// Paper: 5.69x parallel-fraction speedup.
	if r.PFracSpeedup < 4.5 || r.PFracSpeedup > 7.0 {
		t.Errorf("parallel fraction speedup = %.2f, want ≈5.69 in [4.5, 7.0]", r.PFracSpeedup)
	}
	// Paper: 1.24x user-code speedup.
	if r.UserCodeSpeedup < 1.05 || r.UserCodeSpeedup > 1.6 {
		t.Errorf("user code speedup = %.2f, want ≈1.24 in [1.05, 1.6]", r.UserCodeSpeedup)
	}
	// Paper: -1.20x — the GPU loses end-to-end with 256 tasks.
	if r.PTaskSpeedup >= 1.0 {
		t.Errorf("parallel task speedup = %.2f, want < 1 (GPU must lose)", r.PTaskSpeedup)
	}
	if inv := 1 / r.PTaskSpeedup; inv < 1.05 || inv > 2.2 {
		t.Errorf("parallel task inversion = -%.2fx, want ≈-1.20x in [-1.05, -2.2]", inv)
	}
}

func TestCalibrationFig8(t *testing.T) {
	r := mustRun(t, "fig8").(*Fig8Result)
	sw := r.Sweeps[0] // 8 GB dataset
	// matmul_func user-code speedup: monotone in block size, max ≈21x.
	prev := 0.0
	maxSpd := 0.0
	for _, p := range sw.Points {
		if p.CPU.OOM || p.GPU.OOM {
			continue
		}
		spd := Speedup(p.CPU.UserMean, p.GPU.UserMean)
		if spd <= prev {
			t.Errorf("matmul_func speedup not increasing at %s: %.2f <= %.2f",
				dataset.FormatBytes(p.CPU.BlockBytes), spd, prev)
		}
		prev = spd
		if spd > maxSpd {
			maxSpd = spd
		}
		// add_func: the GPU loses at every block size (communication
		// dominated).
		if add := AddFuncSpeedup(p); !math.IsNaN(add) && add >= 1 {
			t.Errorf("add_func speedup = %.2f at %s, want < 1",
				add, dataset.FormatBytes(p.CPU.BlockBytes))
		}
	}
	if maxSpd < 15 || maxSpd > 27 {
		t.Errorf("max matmul_func speedup = %.2f, want ≈21 in [15, 27]", maxSpd)
	}
	// The largest block (8 GB) OOMs the GPU: 3 × 8 GB > 12 GB (§5.3).
	last := sw.Points[len(sw.Points)-1]
	if !last.GPU.OOM {
		t.Error("8 GB block should OOM the 12 GB GPU")
	}
	if last.CPU.OOM {
		t.Error("8 GB block should fit in 128 GB host RAM")
	}
}

func TestCalibrationFig9a(t *testing.T) {
	r := mustRun(t, "fig9a").(*Fig9aResult)
	// Index 0: 10 clusters; 1: 100; 2: 1000. Compare at the smallest
	// block (first point after the ascending-block reorder).
	spd := func(s int) float64 { return r.Sweeps[s].Points[0].UserSpd }
	s10, s100, s1000 := spd(0), spd(1), spd(2)
	if s10 < 1.0 || s10 > 1.7 {
		t.Errorf("10-cluster speedup = %.2f, want ≈1.24", s10)
	}
	// Paper: 100 clusters ≈ 2x the 10-cluster speedup.
	if ratio := s100 / s10; ratio < 1.5 || ratio > 4 {
		t.Errorf("100/10 cluster speedup ratio = %.2f, want ≈2 in [1.5, 4]", ratio)
	}
	// Paper: 1000 clusters up to ≈7x the 10-cluster speedup.
	if ratio := s1000 / s10; ratio < 4 || ratio > 9 {
		t.Errorf("1000/10 cluster speedup ratio = %.2f, want ≈7 in [4, 9]", ratio)
	}
	// Speedups do not scale with block size (±15% across the sweep).
	for s := range r.Sweeps {
		base := r.Sweeps[s].Points[0].UserSpd
		for _, p := range r.Sweeps[s].Points {
			if p.CPU.OOM || p.GPU.OOM {
				continue
			}
			if math.Abs(p.UserSpd-base)/base > 0.15 {
				t.Errorf("clusters=%d: speedup varies with block size: %.2f vs %.2f",
					r.Clusters[s], p.UserSpd, base)
			}
		}
	}
	// OOM structure: 1000 clusters OOM at large blocks, including a host
	// OOM at the 10 GB block; 10 clusters OOM only at the largest.
	last1000 := r.Sweeps[2].Points[len(r.Sweeps[2].Points)-1]
	if !last1000.GPU.OOM || !last1000.CPU.OOM {
		t.Error("1000 clusters at 10 GB block should OOM both devices (CPU GPU OOM)")
	}
	last10 := r.Sweeps[0].Points[len(r.Sweeps[0].Points)-1]
	if !last10.GPU.OOM || last10.CPU.OOM {
		t.Error("10 clusters at 10 GB block should OOM only the GPU")
	}
}

func TestCalibrationFig7bCrossover(t *testing.T) {
	r := mustRun(t, "fig7b").(*Fig7Result)
	sw := r.Sweeps[0] // 10 GB
	// Points are in ascending block size: fine-grained first. The paper:
	// negative parallel-task speedup at small blocks, turning positive as
	// task count reaches the 32 available GPUs.
	first := sw.Points[0]
	if first.PTaskSpd >= 1 {
		t.Errorf("fine-grained parallel-task speedup = %.2f, want < 1", first.PTaskSpd)
	}
	crossed := false
	for _, p := range sw.Points {
		if p.CPU.OOM || p.GPU.OOM {
			continue
		}
		tasks := p.CPU.Grid // g×1 grid: g tasks per iteration
		if p.PTaskSpd > 1 && tasks > 32 {
			t.Errorf("GPU wins at %d tasks (> 32 GPUs): speedup %.2f", tasks, p.PTaskSpd)
		}
		if p.PTaskSpd > 1 {
			crossed = true
		}
	}
	if !crossed {
		t.Error("parallel-task speedup never turned positive at coarse grain")
	}
	// Dataset-size effect (§5.1.3): parallel-fraction speedup grows with
	// the larger dataset at the same grid dimension.
	large := r.Sweeps[1]
	if large.Points[0].PFracSpd <= sw.Points[0].PFracSpd {
		t.Errorf("100 GB parallel-fraction speedup (%.2f) should exceed 10 GB's (%.2f) at the same grid",
			large.Points[0].PFracSpd, sw.Points[0].PFracSpd)
	}
	// 100 GB: GPU memory limits testing to ≥16x1 grids (§5.1.3).
	for _, p := range large.Points {
		if p.CPU.Grid < 16 && !p.GPU.OOM {
			t.Errorf("100 GB at grid %dx1 should GPU-OOM", p.CPU.Grid)
		}
		if p.CPU.Grid >= 16 && p.GPU.OOM {
			t.Errorf("100 GB at grid %dx1 should fit the GPU", p.CPU.Grid)
		}
	}
}

func TestCalibrationFig10(t *testing.T) {
	r := mustRun(t, "fig10b").(*Fig10Result)
	// Local storage must beat shared overall (same grid, same policy,
	// CPU): compare aggregate across grids.
	var localSum, sharedSum float64
	for gi := range r.Grids {
		localSum += r.Points[0][gi].CPU.PTaskMean  // local, FIFO
		sharedSum += r.Points[2][gi].CPU.PTaskMean // shared, FIFO
	}
	if localSum >= sharedSum {
		t.Errorf("local (%v) should be faster than shared (%v) overall", localSum, sharedSum)
	}
	// O5/O6: the policy-change effect is larger on shared disk than on
	// local disk (mean relative delta across grids, CPU times).
	relDelta := func(a, b []Fig10Point) float64 {
		var sum float64
		n := 0
		for i := range a {
			if a[i].CPU.OOM || b[i].CPU.OOM {
				continue
			}
			base := a[i].CPU.PTaskMean
			if base > 0 {
				sum += math.Abs(a[i].CPU.PTaskMean-b[i].CPU.PTaskMean) / base
				n++
			}
		}
		return sum / float64(n)
	}
	localDelta := relDelta(r.Points[0], r.Points[1])
	sharedDelta := relDelta(r.Points[2], r.Points[3])
	if sharedDelta < localDelta {
		t.Errorf("policy sensitivity: shared %.4f < local %.4f, want shared ≥ local",
			sharedDelta, localDelta)
	}
	// §5.3: the maximum block size drops the time relative to the
	// previous block size for Matmul (single task, no distribution
	// overhead, node-wide threading).
	ma := mustRun(t, "fig10a").(*Fig10Result)
	nGrids := len(ma.Grids)
	cpu1x1 := ma.Points[2][0].CPU.PTaskMean // shared FIFO, grid index 0 = 1x1
	cpu2x2 := ma.Points[2][1].CPU.PTaskMean
	_ = nGrids
	if cpu1x1 >= cpu2x2 {
		t.Errorf("Matmul CPU time at max block (%.0f) should drop below 2x2's (%.0f)", cpu1x1, cpu2x2)
	}
}

func TestCalibrationFig12FMA(t *testing.T) {
	// §5.5.1: the FMA implementation follows the same trends as dislib's
	// Matmul — speedups scale with block size into the same band.
	r := mustRun(t, "fig12").(*Fig8Result)
	sw := r.Sweeps[0]
	prev, maxSpd := 0.0, 0.0
	for _, p := range sw.Points {
		if p.CPU.OOM || p.GPU.OOM {
			continue
		}
		spd := Speedup(p.CPU.UserMean, p.GPU.UserMean)
		if spd <= prev {
			t.Errorf("fma speedup not increasing at %s", dataset.FormatBytes(p.CPU.BlockBytes))
		}
		prev = spd
		if spd > maxSpd {
			maxSpd = spd
		}
	}
	if maxSpd < 15 || maxSpd > 30 {
		t.Errorf("max fma speedup = %.2f, want in [15, 30]", maxSpd)
	}
}

func TestCalibrationFig9bSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("real-execution timing experiment")
	}
	r := fig9b(t)
	for _, p := range r.Points {
		// Real kernels on uniform vs skewed data: the paper finds no
		// effect. Wall-clock noise (this test shares the machine with the
		// rest of the suite) is tolerated up to 40%; the paper-style
		// comparison in EXPERIMENTS.md uses quiet-machine runs.
		if d := p.Delta(); d > 0.40 {
			t.Errorf("%s grid %d: skew changed per-task time by %.0f%%, want ≈0",
				p.Algorithm, p.Grid, d*100)
		}
	}
}
