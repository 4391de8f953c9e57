package wfsim_test

// Determinism regression tests for the DES substrate: the simulator pools
// event nodes, reuses goroutines and reschedules events in place on the live
// heap, and none of it may perturb results. A paper-scale run executed twice
// must produce identical metrics traces, record for record.

import (
	"bytes"
	"testing"

	"wfsim"
)

func kmeansTrace(t *testing.T) []byte {
	t.Helper()
	wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
		Dataset: wfsim.Datasets.KMeansSmall, Grid: 256, Clusters: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := wfsim.RunSim(wf, wfsim.SimConfig{Device: wfsim.GPU})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Collector.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func kmeansFaultTrace(t *testing.T) ([]byte, wfsim.FaultStats) {
	t.Helper()
	wf, err := wfsim.BuildKMeans(wfsim.KMeansConfig{
		Dataset: wfsim.Datasets.KMeansSmall, Grid: 256, Clusters: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := wfsim.RunSim(wf, wfsim.SimConfig{
		Device: wfsim.GPU, Storage: wfsim.LocalDisk,
		Faults: wfsim.FaultConfig{
			// Calibrated against the ~54 s fault-free local-disk makespan:
			// several crashes and dozens of transient failures per run, while
			// staying subcritical — lineage recovery inflates the makespan,
			// which buys more crashes, and below ~300 s MTBF the feedback
			// diverges on this workload.
			Seed: 7, NodeMTBF: 500, NodeMTTR: 20,
			TaskFailProb: 0.02, MaxAttempts: 10,
			StragglerMTBF: 1000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Collector.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.Faults
}

// TestSimDeterminismKMeans256 runs the 256-block K-means simulation twice
// and demands byte-identical stage-record traces: same tasks, same
// placements, same timestamps, in the same order.
func TestSimDeterminismKMeans256(t *testing.T) {
	a, b := kmeansTrace(t), kmeansTrace(t)
	if !bytes.Equal(a, b) {
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := range la {
			if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("trace diverges at line %d:\n  first:  %s\n  second: %s",
					i+1, la[i], lb[i])
			}
		}
		t.Fatalf("traces differ in length: %d vs %d lines", len(la), len(lb))
	}
}

// TestSimDeterminismKMeans256Faulty repeats the byte-identity demand with
// failure injection live: crashes, lineage recomputation, retries and
// straggler episodes all ride the engine's virtual clock and seeded PCG
// streams, so a faulty run must replay exactly.
func TestSimDeterminismKMeans256Faulty(t *testing.T) {
	a, fa := kmeansFaultTrace(t)
	b, fb := kmeansFaultTrace(t)
	if fa.Crashes == 0 || fa.TransientFailures == 0 {
		t.Fatalf("fault schedule too quiet to test determinism: %+v", fa)
	}
	if fa != fb {
		t.Fatalf("fault stats diverged:\n  first:  %+v\n  second: %+v", fa, fb)
	}
	if !bytes.Equal(a, b) {
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := range la {
			if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("faulty trace diverges at line %d:\n  first:  %s\n  second: %s",
					i+1, la[i], lb[i])
			}
		}
		t.Fatalf("faulty traces differ in length: %d vs %d lines", len(la), len(lb))
	}
}
