// The sweep workload: every registered experiment except fig9b through a
// runner engine, with no result store (cold, as `wfsim run all`), and
// again with a fresh engine per pass on a filled store (warm, as
// `wfsim run all -cache dir` once the directory is filled).
//
//wfsimlint:wallclock
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"runtime"
	"time"

	"wfsim/internal/experiments"
	"wfsim/internal/resultcache"
	"wfsim/internal/runner"
)

// sweepExcluded is left out of the sweep: fig9b times real float64
// kernels on the host for about a minute and its output depends on wall
// time, so it can be neither kept short nor digest-checked.
const sweepExcluded = "fig9b"

const (
	// sweepCycleSeconds is roughly what the fill pass, or one cycle (a
	// cold pass and its warm passes), takes on a 2-core host; a run makes
	// seconds/this cycles less one for the fill, at least one.
	sweepCycleSeconds = 4
	// sweepWarmPasses is the number of warm passes per cycle.
	sweepWarmPasses = 15
)

func sweepExperiments() []experiments.Experiment {
	var out []experiments.Experiment
	for _, e := range experiments.All() {
		if e.ID != sweepExcluded {
			out = append(out, e)
		}
	}
	return out
}

// sweepTally accumulates engine and cache accounting over a run.
type sweepTally struct {
	stats    runner.Stats
	engineNs int64 // wall time of the passes the engines ran in
	openNs   []float64
	caches   []*timedCache
}

// runSweep fills a store with one untimed pass, then alternates a cold
// pass with sweepWarmPasses warm passes on that store. The cold passes
// run without a store because its write path rewrites the whole index
// file on every Put, and on a VM disk that cost drifted threefold within
// twenty minutes; the fill pass reports it per layer.
func runSweep(ctx context.Context, o opts) (*pass, error) {
	exps := sweepExperiments()
	p := &pass{layer: map[string]float64{}}
	var tally sweepTally
	dir := filepath.Join(o.dir, "store")
	fill, err := sweepPass(ctx, o, exps, dir, "sweep.fill_pass", &tally, p)
	if err != nil {
		return nil, err
	}
	for i, e := range exps {
		p.attempted++
		if want, got := sweepDigests[e.ID], digest(fill.renders[i]); got != want {
			p.fail("sweep fill %s: render sha256 %s, recorded %s", e.ID, got, want)
		}
	}
	p.probeDir = dir

	cycles := max(1, o.seconds/sweepCycleSeconds-1)
	coldExp := make([][]float64, len(exps))
	warmExp := make([][]float64, len(exps))
	start := time.Now()
	for range cycles {
		cold, err := sweepPass(ctx, o, exps, "", "sweep.cold_pass", &tally, p)
		if err != nil {
			return nil, err
		}
		for i, e := range exps {
			p.attempted++
			if cold.renders[i] != fill.renders[i] {
				p.fail("sweep cold %s: render differs from the fill pass", e.ID)
			}
			coldExp[i] = append(coldExp[i], cold.expMs[i])
		}
		p.cold = append(p.cold, cold.ms)
		p.coldAlloc = append(p.coldAlloc, cold.alloc)
		for range sweepWarmPasses {
			warm, err := sweepPass(ctx, o, exps, dir, "sweep.warm_pass", &tally, p)
			if err != nil {
				return nil, err
			}
			for i, e := range exps {
				p.attempted++
				if warm.renders[i] != fill.renders[i] {
					p.fail("sweep warm %s: render differs from the fill pass", e.ID)
				}
				warmExp[i] = append(warmExp[i], warm.expMs[i])
			}
			p.warm = append(p.warm, warm.ms)
		}
	}
	p.wall = time.Since(start)
	// A pass's time is estimated as the sum of each experiment's median
	// time over the run's passes, which discards a slow stretch of the
	// host more cheaply than more passes would.
	for i := range exps {
		p.coldMs += median(coldExp[i])
		p.warmMs += median(warmExp[i])
	}

	runnerLayers(p, tally.stats, time.Duration(tally.engineNs))
	if o.tr != nil {
		spans := o.tr.snapshot()
		self := selfTimes(spans)
		p.layer["experiments.run_s"] = selfByName(spans, self, "experiments.run")
		p.layer["experiments.render_s"] = selfByName(spans, self, "experiments.render")
		cacheLayers(p, tally.caches, tally.openNs, spans, self)
	}
	return p, nil
}

type passResult struct {
	renders []string
	ms      float64   // wall time of the pass
	expMs   []float64 // wall time of each experiment's run and render
	alloc   float64   // bytes allocated during the pass
}

// sweepPass runs every experiment through a fresh engine and renders
// each result. With dir set, the engine is backed by the store in dir,
// opened untimed: opening is set-up.
func sweepPass(ctx context.Context, o opts, exps []experiments.Experiment, dir, name string, tally *sweepTally, p *pass) (*passResult, error) {
	eng := runner.New(nproc)
	var cache *timedCache
	if dir != "" {
		openStart := time.Now()
		store, err := resultcache.Open(dir, 0)
		if err != nil {
			return nil, err
		}
		defer store.Close()
		tally.openNs = append(tally.openNs, float64(time.Since(openStart).Nanoseconds()))
		if o.tr != nil {
			cache = newTimedCache(store, o.tr)
			tally.caches = append(tally.caches, cache)
			eng.SetCache(cache)
		} else {
			eng.SetCache(store)
		}
	}

	out := &passResult{renders: make([]string, len(exps)), expMs: make([]float64, len(exps))}
	var ms0, ms1 runtime.MemStats
	settle()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	passSpan := o.tr.begin(name, -1, "")
	for i, e := range exps {
		expStart := time.Now()
		id := o.tr.begin("experiments.run", passSpan, e.ID)
		if cache != nil {
			cache.parent.Store(int64(id))
		}
		res, err := e.Run(ctx, eng)
		o.tr.end(id)
		if err != nil {
			p.fail("sweep %s: %v", e.ID, err)
			continue
		}
		id = o.tr.begin("experiments.render", passSpan, e.ID)
		out.renders[i] = res.Render()
		o.tr.end(id)
		out.expMs[i] = float64(time.Since(expStart).Nanoseconds()) / 1e6
	}
	elapsed := time.Since(start)
	o.tr.end(passSpan)
	runtime.ReadMemStats(&ms1)
	out.ms = float64(elapsed.Nanoseconds()) / 1e6
	out.alloc = float64(ms1.TotalAlloc - ms0.TotalAlloc)

	addStats(&tally.stats, eng.Stats())
	tally.engineNs += elapsed.Nanoseconds()
	return out, nil
}

// setupSweep is what a warm `wfsim run all -cache dir` waits for before
// its first experiment: opening the filled store, loading its index, and
// attaching it to a new engine.
func setupSweep(dir string) (func(), error) {
	store, err := resultcache.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	runner.New(nproc).SetCache(store)
	return func() {}, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// sweepDigests are the SHA-256 digests of each experiment's Render output,
// recorded at the commit that added this benchmark. A change that alters a
// figure on purpose updates its digest along with the golden fixtures.
var sweepDigests = map[string]string{
	"ext1":   "fcb15cd256a0ed1755bf352058fa397a88b57b2ea79de61ddb61fe8561158a3b",
	"ext2":   "f3d42232f6972ca45d7f65a991902dcd8f4e4e5a572a7ada377db3afa36d4146",
	"ext3":   "fb49fca171a638cb9f6a33997711b62564094f69974a737d09791fd210be5e47",
	"ext4":   "30379f5e19e41c5bad4040b5c71d6f4da80f48db86bb75c5574e773c4628ab18",
	"ext5":   "859e94c76442a8bcf82f9edf32297b9e5b90e5cfd2bf62a31cc350fc06343f4d",
	"ext6":   "be964f28896ed0359aafbabca09dbea2c021097d69301a1ed3bc7f5f669acd11",
	"fig1":   "cfd7a9194a42c4ab33db4fffa29ea83dfa789c6ecf4e69b16689cccda7993c5d",
	"fig10a": "db5593c2be2c6ad6c441fde0700ed79d5e232a7052d014cd39d91822f16c1ac4",
	"fig10b": "9d6db30e648b6fefb42cafb001c7dcd123ec596b27902975ac6e0b5835f184f1",
	"fig11":  "9caf1931a6603f1867f4b5b5c99eb728ebbe6f31495d823e1235deb1fcae26d4",
	"fig12":  "a0bd93d0f9087e51eb3586c0cb72a3639b260fd4175df3f0a80a62fa5f51f9c7",
	"fig7a":  "001ff670c8d3456e8833ab48710ccb8f2f256661f34a47af54b03a114e5fd689",
	"fig7b":  "5766e8ea1a96e4fc64f993c4bc7d404f203881a42ceb688be5cb50ddca0b36fb",
	"fig8":   "205854cababe7ed7102ce8c59e2eb332cf820efdedcf91395a3af4533188c6ba",
	"fig9a":  "10a16ae0c07dc54d1cab9231cd9e8c86a183854cf8b9fc38b21976e4299d5443",
	"table1": "a18d13140e9be158ab58ebc9b7290e3aefceff3b220d9b4c667c6f7ee55451dc",
}
