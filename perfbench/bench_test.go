package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"wfsim/internal/experiments"
	"wfsim/internal/sched"
	"wfsim/internal/server"
	"wfsim/internal/stats"
)

func TestGenQueriesDeterministic(t *testing.T) {
	a, err := genQueries(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genQueries(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("query %d differs between two generations from seed 7:\n%s\n%s", i, a[i].body, b[i].body)
		}
	}
	c, err := genQueries(8, 300)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if bytes.Equal(a[i].body, c[i].body) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 generated the same stream")
	}
}

// TestGenQueriesValid checks that every generated request is one the
// server accepts, names only known tokens, keeps at least one node, and
// asks for a cell no base and no earlier query already computed, so the
// cold phase always simulates.
func TestGenQueriesValid(t *testing.T) {
	baseKeys := map[string]bool{}
	for _, b := range whatifBases() {
		baseKeys[experiments.CellKey(b)] = true
	}
	known := map[string]bool{"": true}
	for _, tok := range append(append([]string{}, devices...), storages...) {
		known[tok] = true
	}
	for _, p := range sched.Policies() {
		known[p.String()] = true
	}
	fieldsSeen := map[string]bool{}
	for seed := uint64(1); seed <= 5; seed++ {
		qs, err := genQueries(seed, 400)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for i, q := range qs {
			var decoded server.WhatIfRequest
			if err := json.Unmarshal(q.body, &decoded); err != nil {
				t.Fatalf("seed %d query %d: body does not decode: %v", seed, i, err)
			}
			pt := decoded.Perturb
			for _, tok := range []string{pt.Device, pt.Storage, pt.Policy} {
				if !known[tok] {
					t.Errorf("seed %d query %d: unknown token %q", seed, i, tok)
				}
			}
			if pt.FaultScale < 0 {
				t.Errorf("seed %d query %d: negative fault_scale %v", seed, i, pt.FaultScale)
			}
			cfg, err := pt.Apply(decoded.Cell)
			if err != nil {
				t.Fatalf("seed %d query %d: server would reject it: %v", seed, i, err)
			}
			if pt.NodesDelta != 0 && cfg.Cluster.Nodes < 1 {
				t.Errorf("seed %d query %d: %d nodes", seed, i, cfg.Cluster.Nodes)
			}
			key := experiments.CellKey(cfg)
			if key != q.key {
				t.Errorf("seed %d query %d: key after a JSON round trip differs", seed, i)
			}
			if baseKeys[key] || seen[key] {
				t.Errorf("seed %d query %d: perturbed cell was already computed", seed, i)
			}
			seen[key] = true
			fieldsSeen["nodes"] = fieldsSeen["nodes"] || pt.NodesDelta != 0
			fieldsSeen["faults"] = fieldsSeen["faults"] || pt.FaultScale != 0
			fieldsSeen["device"] = fieldsSeen["device"] || pt.Device != ""
			fieldsSeen["storage"] = fieldsSeen["storage"] || pt.Storage != ""
			fieldsSeen["policy"] = fieldsSeen["policy"] || pt.Policy != ""
		}
	}
	if len(fieldsSeen) != 5 {
		t.Fatalf("perturbation fields exercised: %v, want all five", fieldsSeen)
	}
	for f, ok := range fieldsSeen {
		if !ok {
			t.Errorf("no query perturbs %s", f)
		}
	}
}

func TestTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, c := range []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{100, 0.9, true},
		{40, 0.75, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		q, v, ok := tail(xs(c.n))
		if ok != c.ok || q != c.wantQ {
			t.Errorf("n=%d: tail percentile %v (ok %v), want %v (ok %v)", c.n, q, ok, c.wantQ, c.ok)
			continue
		}
		if ok && v != stats.Quantile(xs(c.n), q) {
			t.Errorf("n=%d: tail value %v, want stats.Quantile's %v", c.n, v, stats.Quantile(xs(c.n), q))
		}
		if !ok && !math.IsNaN(v) {
			t.Errorf("n=%d: value %v without a percentile", c.n, v)
		}
	}
}

// TestSelfTimes checks self time on a hand-built tree:
//
//	root [0,100]
//	├── a [10,40]
//	│   └── d [20,25]
//	├── b [30,60]      overlaps a: [30,40] counts once
//	└── c [90,120]     runs past root: only [90,100] counts
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 90, End: 120, Parent: 0},
		{Name: "d", Start: 20, End: 25, Parent: 1},
		{Name: "other", Start: 0, End: 7, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if s := selfByName(spans, got, "b"); s != 30e-9 {
		t.Errorf("selfByName(b) = %v s, want 30 ns", s)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the names and units this program
// prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
			return
		}
		for i, m := range printed {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
}
