package experiments

import (
	"strings"
	"testing"
)

// Render coverage: every experiment's textual output must contain the
// structural elements a reader comparing against the paper needs. These
// run the full experiments, so they double as end-to-end smoke tests of
// the registry.

func renderOf(t *testing.T, id string) string {
	t.Helper()
	return mustRun(t, id).Render()
}

func assertContains(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q\n--- output:\n%s", w, out)
		}
	}
}

func TestRenderFig1(t *testing.T) {
	out := renderOf(t, "fig1")
	assertContains(t, out,
		"Figure 1",
		"parallel fraction (single task)",
		"task user code (single task)",
		"parallel tasks (256 tasks)",
		"Paper reports: 5.69x / 1.24x / -1.20x",
		"GPU speedup over CPU",
	)
}

func TestRenderFig7(t *testing.T) {
	out := renderOf(t, "fig7b")
	assertContains(t, out,
		"Figure 7b",
		"kmeans-10GB",
		"kmeans-100GB",
		"P.Frac", "Usr.Code", "P.Tasks",
		"GPU OOM",
		"39MB", "256x1",
		"Ser/Deser",
	)
}

func TestRenderFig8(t *testing.T) {
	out := renderOf(t, "fig8")
	assertContains(t, out,
		"Figure 8",
		"matmul_func", "add_func",
		"P.Frac CPU", "P.Frac GPU", "CPU-GPU Comm",
		"GPU OOM",
		"2GB",
	)
}

func TestRenderFig9a(t *testing.T) {
	out := renderOf(t, "fig9a")
	assertContains(t, out,
		"Figure 9a",
		"10 clusters", "100 clusters", "1000 clusters",
		"CPU GPU OOM", // the 10 GB × 1000 clusters cell
		"S.Frac",
	)
}

func TestRenderFig9b(t *testing.T) {
	if testing.Short() {
		t.Skip("real execution")
	}
	out := fig9b(t).Render()
	assertContains(t, out,
		"Figure 9b",
		"0% skew", "50% skew",
		"matmul", "kmeans",
		"delta",
	)
}

func TestRenderFig10(t *testing.T) {
	out := renderOf(t, "fig10a")
	assertContains(t, out,
		"Figure 10a",
		"local disk, task generation order",
		"local disk, data locality",
		"shared disk, task generation order",
		"shared disk, data locality",
		"GPU OOM",
		"8GB (1x1)",
	)
}

func TestRenderFig11(t *testing.T) {
	out := renderOf(t, "fig11")
	assertContains(t, out,
		"Figure 11",
		"Spearman",
		"Parallel task exec. time",
		"Computational complexity",
		"Key cells vs paper",
		"r(CPU, GPU) = -1.000",
	)
}

func TestRenderFig12(t *testing.T) {
	out := renderOf(t, "fig12")
	assertContains(t, out,
		"Figure 12",
		"fma_func",
		"Matmul FMA",
	)
}

func TestRenderTable1(t *testing.T) {
	out := renderOf(t, "table1")
	assertContains(t, out,
		"Table 1",
		"block dimension",
		"processor type",
		"storage architecture",
		"scheduling policy",
		"device speedup",
	)
}

func TestRenderExt1(t *testing.T) {
	out := renderOf(t, "ext1")
	assertContains(t, out,
		"parallel-fraction spectrum",
		"kmeans (partial_sum, K=10)",
		"linreg (gradient, E=10)",
		"matmul (matmul_func, 2GB blocks)",
		"Amdahl limit",
	)
}

func TestExt1SpectrumOrdering(t *testing.T) {
	r := mustRun(t, "ext1").(*Ext1Result)
	if len(r.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(r.Points))
	}
	// Points are listed in ascending parallel fraction; both analytic and
	// simulated speedups must be monotone along the spectrum — the
	// §5.4.3/§5.5.1 decision signal.
	for i := 1; i < len(r.Points); i++ {
		prev, cur := r.Points[i-1], r.Points[i]
		if cur.ParallelFraction <= prev.ParallelFraction {
			t.Errorf("parallel fraction not increasing: %s (%.2f) after %s (%.2f)",
				cur.Name, cur.ParallelFraction, prev.Name, prev.ParallelFraction)
		}
		if cur.UserSpeedup <= prev.UserSpeedup {
			t.Errorf("analytic speedup not increasing at %s", cur.Name)
		}
		if cur.SimSpeedup <= prev.SimSpeedup {
			t.Errorf("simulated speedup not increasing at %s", cur.Name)
		}
	}
	// Analytic and simulated values agree within 20%.
	for _, p := range r.Points {
		if p.SimSpeedup == 0 {
			continue
		}
		if rel := (p.UserSpeedup - p.SimSpeedup) / p.SimSpeedup; rel > 0.2 || rel < -0.2 {
			t.Errorf("%s: analytic %.2f vs simulated %.2f diverge", p.Name, p.UserSpeedup, p.SimSpeedup)
		}
	}
}

func TestRenderExt2(t *testing.T) {
	out := renderOf(t, "ext2")
	assertContains(t, out,
		"across GPU generations",
		"K80-era (paper testbed)",
		"A100/NVLink-class",
		"Amdahl",
	)
}

func TestExt2ArchitectureShifts(t *testing.T) {
	r := mustRun(t, "ext2").(*Ext2Result)
	if len(r.Eras) != 2 {
		t.Fatalf("eras = %d, want 2", len(r.Eras))
	}
	k80, modern := r.Eras[0], r.Eras[1]
	// What moves: kernel speedups and OOM boundaries.
	if modern.PFracSpeedup <= k80.PFracSpeedup {
		t.Errorf("modern parallel-fraction speedup (%.2f) should exceed K80's (%.2f)",
			modern.PFracSpeedup, k80.PFracSpeedup)
	}
	if modern.MatmulMaxSpeedup <= k80.MatmulMaxSpeedup {
		t.Error("modern matmul speedup should exceed K80's")
	}
	if k80.MatmulOOMBlock == 0 {
		t.Error("K80 era must OOM at the 8 GB Matmul block")
	}
	if modern.MatmulOOMBlock != 0 {
		t.Errorf("40 GB device should fit every Matmul block (OOM at %d)", modern.MatmulOOMBlock)
	}
	// What does not move: the Amdahl ceiling on K-means user code (serial
	// fraction bound) and the task-parallelism asymmetry.
	if modern.UserSpeedup > k80.UserSpeedup*1.3 {
		t.Errorf("K-means user speedup should barely move (%.2f -> %.2f): serial fraction bound",
			k80.UserSpeedup, modern.UserSpeedup)
	}
	if modern.PTaskSpeedup >= 1 {
		t.Errorf("parallel-task inversion should persist on modern hardware (%.2f)",
			modern.PTaskSpeedup)
	}
	if modern.KMeansCrossoverTasks > 32 {
		t.Errorf("GPU parallel-task win should stay bounded by the 32 devices (crossover %d)",
			modern.KMeansCrossoverTasks)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig7a", "fig7b", "fig8", "fig9a", "fig9b",
		"fig10a", "fig10b", "fig11", "fig12", "table1", "ext1", "ext2", "ext3", "ext4", "ext5", "ext6"}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %q", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}
