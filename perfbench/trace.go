// Tracing for the traced run: spans recorded around the benchmark's own
// calls into each wfsim layer, kept in memory and written out when the
// run ends. The untraced run uses none of the types in this file, so its
// end-to-end numbers carry no instrumentation cost.
//
//wfsimlint:wallclock
package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wfsim/internal/metrics"
	"wfsim/internal/runner"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer's epoch; Parent is the index of the enclosing span, or
// -1 for a root. Spans of one HTTP request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req,omitempty"`
}

// tracer holds every span of a run in memory. It is safe for concurrent
// use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span and returns its index. On a nil tracer it does
// nothing and returns -1, so untraced code paths can call it freely.
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes the span begun as id; it does nothing on a nil tracer.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
}

// record adds an already-timed span and returns its index.
func (t *tracer) record(name string, start, end int64, parent int, req string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. Children may
// overlap each other (concurrent workers); covered time is counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(spans, children[i], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, ids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for k, v := range ivs {
		switch {
		case k == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// selfByName sums self time in seconds over every span with the given
// name.
func selfByName(spans []span, self []int64, name string) float64 {
	var ns int64
	for i, s := range spans {
		if s.Name == name {
			ns += self[i]
		}
	}
	return float64(ns) / 1e9
}

// timedCache is a runner.Cache decorator that records a span per Get and
// Put under the span currently set as parent, and counts calls, hits and
// bytes written.
type timedCache struct {
	inner  runner.Cache
	tr     *tracer
	parent atomic.Int64

	gets, hits, puts, putBytes atomic.Int64
}

func newTimedCache(inner runner.Cache, tr *tracer) *timedCache {
	c := &timedCache{inner: inner, tr: tr}
	c.parent.Store(-1)
	return c
}

func (c *timedCache) Get(key string) ([]byte, bool) {
	id := c.tr.begin("resultcache.get", int(c.parent.Load()), "")
	payload, ok := c.inner.Get(key)
	c.tr.end(id)
	c.gets.Add(1)
	if ok {
		c.hits.Add(1)
	}
	return payload, ok
}

func (c *timedCache) Put(key string, payload []byte) {
	id := c.tr.begin("resultcache.put", int(c.parent.Load()), "")
	c.inner.Put(key, payload)
	c.tr.end(id)
	c.puts.Add(1)
	c.putBytes.Add(int64(len(payload)))
}

// timedSink is a metrics.Sink decorator that counts Observe calls and
// their total time, instead of recording a span per call: a large run
// makes several hundred thousand of them. The simulated backend calls a
// sink from one goroutine, so plain fields suffice.
type timedSink struct {
	inner metrics.Sink
	calls int64
	ns    int64
}

func (s *timedSink) Observe(r metrics.Record) {
	start := time.Now()
	s.inner.Observe(r)
	s.ns += time.Since(start).Nanoseconds()
	s.calls++
}

// reqHeader carries the request ID shared by the client and handler spans.
const reqHeader = "X-Bench-Request"

// timedHandler is an http.Handler decorator that records one span per
// request, tagged with the request ID the client sent.
type timedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.tr.begin("server.handler", -1, r.Header.Get(reqHeader))
	h.inner.ServeHTTP(w, r)
	h.tr.end(id)
}

// cacheLayers reports the resultcache metrics of a run: the median open
// time, and the calls, self time, hit ratio and bytes written through
// the given decorators.
func cacheLayers(p *pass, caches []*timedCache, openNs []float64, spans []span, self []int64) {
	var gets, hits, puts, bytes int64
	for _, c := range caches {
		gets, hits, puts, bytes = gets+c.gets.Load(), hits+c.hits.Load(), puts+c.puts.Load(), bytes+c.putBytes.Load()
	}
	p.layer["resultcache.open_s"] = median(openNs) / 1e9
	p.layer["resultcache.get_calls"] = float64(gets)
	p.layer["resultcache.get_s"] = selfByName(spans, self, "resultcache.get")
	p.layer["resultcache.put_calls"] = float64(puts)
	p.layer["resultcache.put_s"] = selfByName(spans, self, "resultcache.put")
	p.layer["resultcache.bytes"] = float64(bytes)
	if gets > 0 {
		p.layer["resultcache.hit_ratio"] = float64(hits) / float64(gets)
	}
}

// runnerLayers reports the runner metrics of a run from its engines'
// summed Stats and the wall time they ran in.
func runnerLayers(p *pass, st runner.Stats, wall time.Duration) {
	p.layer["runner.trials"] = float64(st.Trials)
	p.layer["runner.memoized"] = float64(st.Memoized)
	p.layer["runner.cache_hits"] = float64(st.CacheHits)
	p.layer["runner.failed"] = float64(st.Failed)
	p.layer["runner.busy_s"] = st.CPUWall.Seconds()
	p.layer["runner.parallelism"] = st.CPUWall.Seconds() / wall.Seconds()
}

func addStats(dst *runner.Stats, st runner.Stats) {
	dst.Trials += st.Trials
	dst.Memoized += st.Memoized
	dst.CacheHits += st.CacheHits
	dst.Failed += st.Failed
	dst.CPUWall += st.CPUWall
}
