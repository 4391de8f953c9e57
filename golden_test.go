package wfsim_test

// Golden regression tests for the datum-interning refactor: the string→ID
// rewrite of the workflow hot path is a pure performance change, so its
// outputs must be byte-identical to the pre-refactor tree. The fixtures
// under testdata/ were captured on the commit *before* the refactor:
//
//   - golden_fig1_render.txt        full fig1 experiment render text
//   - golden_kmeans256_trace.sha256 SHA-256 + byte length of the 256-block
//     K-means GPU stage trace CSV
//
// Any divergence means the refactor changed scheduling, placement or
// timing — not just speed — and is a bug.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"wfsim"
)

func TestGoldenKMeans256Trace(t *testing.T) {
	// "auto" is the simulator's default configuration — the one every
	// experiment runs — kept as a named case so the fixture's history of
	// per-configuration results stays comparable.
	t.Run("auto", func(t *testing.T) {
		raw, err := os.ReadFile("testdata/golden_kmeans256_trace.sha256")
		if err != nil {
			t.Fatal(err)
		}
		fields := strings.Fields(string(raw))
		if len(fields) != 2 {
			t.Fatalf("malformed golden digest file: %q", raw)
		}
		wantSum, wantLen := fields[0], fields[1]

		trace := kmeansTrace(t)
		sum := sha256.Sum256(trace)
		if got := hex.EncodeToString(sum[:]); got != wantSum || fmt.Sprint(len(trace)) != wantLen {
			t.Fatalf("256-block K-means trace diverged from pre-refactor golden:\n"+
				"  got  %s (%d bytes)\n  want %s (%s bytes)", got, len(trace), wantSum, wantLen)
		}
	})
}

func TestGoldenFig1Render(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 runs the full block-size sweep; skipped in -short")
	}
	want, err := os.ReadFile("testdata/golden_fig1_render.txt")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := wfsim.ExperimentByID("fig1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background(), wfsim.NewRunner(0))
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(res.Render())
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				t.Fatalf("fig1 render diverges at line %d:\n  got  %q\n  want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("fig1 render differs in length: %d vs %d lines", len(gl), len(wl))
	}
}
