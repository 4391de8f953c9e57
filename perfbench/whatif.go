// The whatif workload: a closed loop of nproc keep-alive HTTP clients
// posting /whatif over loopback to server.New, in rounds that each start
// a fresh server. A round's cold phase sends distinct queries, so every
// perturbed cell is simulated; its hot phase replays them, so every
// answer comes from the engine's memo.
//
// The server runs as `wfsim serve` does by default, with no persistent
// store. With one attached, each cold answer also pays a Store.Put, whose
// cost on a VM disk drifted from ~1 to ~3.5 ms per query within twenty
// minutes, more than the simulation itself; the sweep workload measures
// that write path.
//
//wfsimlint:wallclock
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/experiments"
	"wfsim/internal/faults"
	"wfsim/internal/runner"
	"wfsim/internal/sched"
	"wfsim/internal/server"
	"wfsim/internal/stats"
)

const (
	// whatifColdPerSecond and whatifHotPerSecond size the phases: a run
	// of S seconds sends about S×these many cold and hot requests, the
	// cold ones as whatifRounds repeats of one set of distinct queries.
	whatifColdPerSecond = 35
	whatifHotPerSecond  = 2000
	// whatifRounds is how many server lifetimes a run is split into.
	whatifRounds = 10
	// whatifMinHot keeps the hot phase's p99 resting on at least ten
	// samples.
	whatifMinHot = 1000
	// requestsPerConn is how many requests a client sends on one
	// connection before opening a new one.
	requestsPerConn = 500
	// whatifChecked is how many cold answers are compared with a direct
	// experiments.RunCell of the same configuration.
	whatifChecked = 6
	// whatifStream separates the generator's PCG stream from other uses
	// of the same seed.
	whatifStream = 0x77686174
)

// whatifBases are the base cells queries perturb: the paper's Matmul and
// K-means datasets at each of their grids, alternating CPU and GPU, plus
// two fault-injected cells so that fault_scale perturbations change
// something. Faults are crashes and stragglers only: transient task
// failures could exhaust a task's attempts and fail the query.
func whatifBases() []experiments.CellConfig {
	device := func(i int) costmodel.DeviceKind {
		if i%2 == 0 {
			return costmodel.GPU
		}
		return costmodel.CPU
	}
	var out []experiments.CellConfig
	for _, ds := range []dataset.Dataset{dataset.MatmulSmall, dataset.MatmulLarge} {
		for i, g := range dataset.MatmulGrids {
			out = append(out, experiments.CellConfig{Algorithm: experiments.Matmul, Dataset: ds, Grid: g, Device: device(i)})
		}
	}
	for _, ds := range []dataset.Dataset{dataset.KMeansSmall, dataset.KMeansLarge} {
		for i, g := range dataset.KMeansGrids {
			out = append(out, experiments.CellConfig{Algorithm: experiments.KMeans, Dataset: ds, Grid: g, Device: device(i)})
		}
	}
	crashes := faults.Config{Seed: 42, NodeMTBF: 600, NodeMTTR: 24, StragglerMTBF: 1200}
	out = append(out,
		experiments.CellConfig{Algorithm: experiments.KMeans, Dataset: dataset.KMeansSmall, Grid: 128, Device: costmodel.GPU, Faults: crashes},
		experiments.CellConfig{Algorithm: experiments.Matmul, Dataset: dataset.MatmulSmall, Grid: 8, Device: costmodel.GPU, Faults: crashes},
	)
	return out
}

var (
	faultScales = []float64{0.5, 2}
	devices     = []string{"cpu", "gpu"}
	storages    = []string{"shared", "local"}
	maxExtra    = 8 // most nodes a query adds
)

// drawPerturbation draws each of the five fields with probability 1/2,
// from valid values only: at least one node remains, and device,
// storage and policy are known tokens.
func drawPerturbation(rng *rand.Rand, base experiments.CellConfig) server.Perturbation {
	var p server.Perturbation
	nodes := base.Cluster.Nodes
	if nodes == 0 {
		nodes = cluster.Minotauro().Nodes
	}
	if rng.IntN(2) == 0 {
		p.NodesDelta = rng.IntN(nodes+maxExtra) - (nodes - 1)
	}
	if rng.IntN(2) == 0 {
		p.FaultScale = faultScales[rng.IntN(len(faultScales))]
	}
	if rng.IntN(2) == 0 {
		p.Device = devices[rng.IntN(len(devices))]
	}
	if rng.IntN(2) == 0 {
		p.Storage = storages[rng.IntN(len(storages))]
	}
	if rng.IntN(2) == 0 {
		pols := sched.Policies()
		p.Policy = pols[rng.IntN(len(pols))].String()
	}
	return p
}

// query is one generated /whatif request.
type query struct {
	body      []byte
	perturbed experiments.CellConfig
	key       string
}

// querySetSeed fixes which queries a run sends; the run's seed sets the
// order they are sent in. With seeds drawing their own perturbations, the
// mix of cheap and expensive cells, and with it the cold median, would
// change from seed to seed.
const querySetSeed = 1

// genQueries generates n distinct queries in an order drawn from seed.
// Bases are taken in rounds over whatifBases; perturbations are redrawn
// until the perturbed cell differs from every base and from every earlier
// query, so each one is simulated when first asked.
func genQueries(seed uint64, n int) ([]query, error) {
	rng := rand.New(rand.NewPCG(querySetSeed, whatifStream))
	bases := whatifBases()
	used := make(map[string]bool, len(bases)+n)
	for _, b := range bases {
		used[experiments.CellKey(b)] = true
	}
	qs := make([]query, 0, n)
	var round []int
	for len(qs) < n {
		if len(round) == 0 {
			round = rng.Perm(len(bases))
		}
		base := bases[round[0]]
		round = round[1:]
		for attempt := 0; ; attempt++ {
			if attempt == 100 {
				return nil, fmt.Errorf("whatif: no new perturbation of %s grid %d in 100 draws", base.Dataset.Name, base.Grid)
			}
			pt := drawPerturbation(rng, base)
			cfg, err := pt.Apply(base)
			if err != nil {
				return nil, fmt.Errorf("whatif: generated an invalid perturbation %+v: %w", pt, err)
			}
			key := experiments.CellKey(cfg)
			if used[key] {
				continue
			}
			used[key] = true
			body, err := json.Marshal(server.WhatIfRequest{Cell: base, Perturb: pt})
			if err != nil {
				return nil, err
			}
			qs = append(qs, query{body: body, perturbed: cfg, key: key})
			break
		}
	}
	order := rand.New(rand.NewPCG(seed, whatifStream))
	order.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs, nil
}

// reply is one request's outcome as the client saw it.
type reply struct {
	ms     float64
	status int
	resp   server.WhatIfResponse
	err    error
}

// whatifTally accumulates accounting over a run's rounds.
type whatifTally struct {
	stats             runner.Stats
	coldWall, hotWall time.Duration
	coldAlloc         uint64
	coldMs            []float64 // every cold latency, pooled
	sources           map[string]int
	coldCells         []experiments.Cell // round 0's answers
	coldLat           [][]float64        // per query, one latency per round
}

// runWhatIf runs whatifRounds rounds. Each round starts a fresh server,
// as a restarted `wfsim serve` would, sends every query of the set once
// (cold), then replays queries of the set (hot). Each query is thus asked
// cold once per round, and a query's cold latency is its median over the
// rounds, which discards a slow stretch of the host.
func runWhatIf(ctx context.Context, o opts) (*pass, error) {
	nSet := max(1, whatifColdPerSecond*o.seconds/whatifRounds)
	nHot := max(whatifMinHot, whatifHotPerSecond*o.seconds) / whatifRounds
	qs, err := genQueries(o.seed, nSet)
	if err != nil {
		return nil, err
	}
	p := &pass{layer: map[string]float64{}}
	t := &whatifTally{
		sources:   map[string]int{},
		coldCells: make([]experiments.Cell, nSet),
		coldLat:   make([][]float64, nSet),
	}
	order := rand.New(rand.NewPCG(o.seed, whatifStream+1))
	start := time.Now()
	for r := range whatifRounds {
		if err := whatifRound(o, r, qs, order, nHot, t, p); err != nil {
			return nil, err
		}
	}
	p.wall = time.Since(start)

	for _, lat := range t.coldLat {
		if len(lat) > 0 {
			p.cold = append(p.cold, median(lat))
		}
	}
	p.coldMs, p.warmMs = median(p.cold), median(p.warm)
	rng := rand.New(rand.NewPCG(o.seed, whatifStream+2))
	for _, qi := range rng.Perm(nSet)[:min(whatifChecked, nSet)] {
		p.attempted++
		want, err := experiments.RunCell(qs[qi].perturbed)
		if err != nil {
			p.fail("whatif check of query %d: RunCell: %v", qi, err)
		} else if !reflect.DeepEqual(want, t.coldCells[qi]) {
			p.fail("whatif query %d: served cell differs from experiments.RunCell\nserved: %+v\ndirect: %+v", qi, t.coldCells[qi], want)
		}
	}
	nCold := len(t.coldMs)
	p.coldAlloc = []float64{float64(t.coldAlloc) / float64(max(nCold, 1))}

	p.layer["server.source_simulation"] = float64(t.sources["simulation"])
	p.layer["server.source_memo"] = float64(t.sources["memo"])
	p.layer["server.source_cache"] = float64(t.sources["cache"])
	p.layer["server.cold_p95_ms"] = stats.Quantile(t.coldMs, 0.95)
	p.layer["client.cold_rps"] = float64(nCold) / t.coldWall.Seconds()
	p.layer["client.hot_rps"] = float64(len(p.warm)) / t.hotWall.Seconds()
	p.layer["client.hot_p99_ms"] = stats.Quantile(p.warm, 0.99)
	runnerLayers(p, t.stats, t.coldWall+t.hotWall)
	if o.tr != nil {
		spans := o.tr.snapshot()
		clientMs := map[string]float64{}
		for _, s := range spans {
			if s.Name == "client.request" {
				clientMs[s.Req] = float64(s.End-s.Start) / 1e6
			}
		}
		var hCold, hHot, overhead []float64
		for _, s := range spans {
			if s.Name != "server.handler" || s.Req == "" {
				continue
			}
			ms := float64(s.End-s.Start) / 1e6
			if s.Req[0] == 'c' {
				hCold = append(hCold, ms)
			} else {
				hHot = append(hHot, ms)
				overhead = append(overhead, clientMs[s.Req]-ms)
			}
		}
		p.layer["server.handler_cold_p50_ms"] = median(hCold)
		p.layer["server.handler_hot_p50_ms"] = median(hHot)
		p.layer["http.overhead_p50_ms"] = median(overhead)
	}
	return p, nil
}

// whatifRound runs round r: a fresh server, every query of
// qs cold in a seeded order, then nHot seeded replays.
func whatifRound(o opts, r int, qs []query, order *rand.Rand, nHot int, t *whatifTally, p *pass) error {
	eng := runner.New(nproc)
	var handler http.Handler = server.New(eng, nil)
	if o.tr != nil {
		handler = timedHandler{inner: handler, tr: o.tr}
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	url := srv.URL + "/whatif"

	cold := order.Perm(len(qs))
	var ms0, ms1 runtime.MemStats
	settle()
	runtime.ReadMemStats(&ms0)
	replies, wall := drive(url, qs, cold, o.tr, "c", r*len(qs))
	runtime.ReadMemStats(&ms1)
	t.coldAlloc += ms1.TotalAlloc - ms0.TotalAlloc
	t.coldWall += wall
	for i, rep := range replies {
		qi := cold[i]
		p.attempted++
		t.sources[rep.resp.Source]++
		if bad := checkReply(rep, qs[qi], "simulation"); bad != "" {
			p.fail("whatif round %d cold query %d: %s", r, qi, bad)
			continue
		}
		if r == 0 {
			t.coldCells[qi] = rep.resp.Cell
		} else if !reflect.DeepEqual(rep.resp.Cell, t.coldCells[qi]) {
			p.fail("whatif round %d cold query %d: cell differs from round 0", r, qi)
			continue
		}
		t.coldLat[qi] = append(t.coldLat[qi], rep.ms)
		t.coldMs = append(t.coldMs, rep.ms)
	}

	hot := make([]int, nHot)
	for i := range hot {
		hot[i] = order.IntN(len(qs))
	}
	settle()
	replies, wall = drive(url, qs, hot, o.tr, "h", r*nHot)
	t.hotWall += wall
	for i, rep := range replies {
		qi := hot[i]
		p.attempted++
		t.sources[rep.resp.Source]++
		if bad := checkReply(rep, qs[qi], "memo"); bad != "" {
			p.fail("whatif round %d hot request %d (query %d): %s", r, i, qi, bad)
			continue
		}
		if !reflect.DeepEqual(rep.resp.Cell, t.coldCells[qi]) {
			p.fail("whatif round %d hot request %d (query %d): cell differs from the cold answer", r, i, qi)
			continue
		}
		p.warm = append(p.warm, rep.ms)
	}
	addStats(&t.stats, eng.Stats())
	return nil
}

// checkReply returns what is wrong with r as the answer to q, or "".
func checkReply(r reply, q query, source string) string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d", r.status)
	case r.resp.Source != source:
		return fmt.Sprintf("source %q, want %q", r.resp.Source, source)
	case r.resp.Key != q.key:
		return fmt.Sprintf("key %s, want %s", r.resp.Key, q.key)
	}
	return ""
}

// drive sends the queries in order from nproc closed-loop clients, each
// sending its next request only when the previous answer has arrived.
// Each client keeps one connection alive for requestsPerConn requests and
// then opens a new one: on a 2-core VM the latency a connection settles
// into differs by up to ~1.7x from one connection to the next, so a run
// spreads its requests over many connections.
// Request IDs are phase followed by first, first+1, ...
func drive(url string, qs []query, order []int, tr *tracer, phase string, first int) ([]reply, time.Duration) {
	replies := make([]reply, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var transport *http.Transport
			var client *http.Client
			defer func() { transport.CloseIdleConnections() }()
			for n := 0; ; n++ {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				if n%requestsPerConn == 0 {
					if transport != nil {
						transport.CloseIdleConnections()
					}
					transport = &http.Transport{MaxIdleConnsPerHost: 1}
					client = &http.Client{Transport: transport}
				}
				replies[i] = post(client, url, qs[order[i]].body, tr, phase+strconv.Itoa(first+i))
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

// post sends one request and times it until the whole answer is read.
func post(client *http.Client, url string, body []byte, tr *tracer, reqID string) reply {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	var t0 int64
	if tr != nil {
		req.Header.Set(reqHeader, reqID)
		t0 = tr.now()
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{ms: float64(time.Since(start).Nanoseconds()) / 1e6, status: resp.StatusCode}
	if tr != nil {
		tr.record("client.request", t0, tr.now(), -1, reqID)
	}
	if err == nil {
		err = json.Unmarshal(data, &r.resp)
	}
	r.err = err
	return r
}

// setupWhatIf is what `wfsim serve` waits for before its first answer:
// building the server, listening, and one round trip on a fresh
// connection.
func setupWhatIf(string) (func(), error) {
	srv := httptest.NewServer(server.New(runner.New(nproc), nil))
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		srv.Close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		srv.Close()
		return nil, fmt.Errorf("GET /stats: status %d", resp.StatusCode)
	}
	return srv.Close, nil
}
