// Package metrics records and aggregates per-task stage timings using the
// paper's measurement taxonomy (§4.2):
//
//   - task user code metrics, aggregated per task type: serial fraction,
//     parallel fraction, CPU-GPU communication, and their sum;
//   - data-movement overheads, aggregated per CPU core: deserialization and
//     serialization;
//   - task-level metrics, per DAG level: parallel task execution time.
//
// The collector is the in-Go analog of the paper's instrumentation stack
// (Python perf counters, CUDA events and Paraver traces); a Paraver-like
// trace export is provided for inspection.
//
// Two consumption models exist. Collector retains every record —
// required by trace/Gantt/CSV export and any post-hoc query. Aggregates
// folds records into fixed-size sums as they arrive — O(1) memory per
// (task type, stage) pair instead of O(tasks), for million-task runs whose
// traces would not fit. Both implement Sink, the record-consumer contract
// the simulated runtime emits into.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Stage enumerates the task processing stages of the paper's Figure 4.
type Stage int

const (
	// StageSched is the time from task readiness to placement (queueing
	// plus the scheduler's per-decision service time).
	StageSched Stage = iota
	// StageDeser covers storage read + decode into host memory.
	StageDeser
	// StageCommIn is host-to-device transfer (GPU tasks only).
	StageCommIn
	// StageParallel is the parallel fraction of the user code.
	StageParallel
	// StageSerial is the serial fraction of the user code.
	StageSerial
	// StageCommOut is device-to-host transfer (GPU tasks only).
	StageCommOut
	// StageSer covers encode + storage write of outputs.
	StageSer
	// StageRecovery is fault-recovery overhead: the span an aborted
	// attempt held its core before a node crash, transient failure or
	// lost input forced it off (fault-injected runs only).
	StageRecovery

	numStages
)

// NumStages is the number of distinct task stages; a task contributes at
// most NumStages records to a collector.
const NumStages = int(numStages)

var stageNames = [numStages]string{
	"sched", "deser", "comm_in", "parallel", "serial", "comm_out", "ser",
	"recovery",
}

func (s Stage) String() string {
	if s < 0 || int(s) >= len(stageNames) {
		return fmt.Sprintf("Stage(%d)", int(s))
	}
	return stageNames[s]
}

// Record is one measured stage of one task.
type Record struct {
	TaskID   int
	TaskName string
	Level    int
	Node     int
	Core     int // cluster-global core index the task's host side ran on
	Device   string
	Stage    Stage
	Start    float64
	End      float64
}

// Duration returns the record's elapsed time.
func (r Record) Duration() float64 { return r.End - r.Start }

// Sink consumes stage records one at a time as the runtime emits them.
// Implementations are not required to be safe for concurrent use: the
// simulated backend is single-threaded, so Observe is called from exactly
// one goroutine per run. Callers that share a sink across goroutines (the
// local backend) must use a concurrency-safe entry point such as
// Collector.Add.
type Sink interface {
	Observe(Record)
}

// crec is the retained, pointer-free form of a Record: the two string
// fields are interned into the owning collector's name table, so the
// record buffer contains no pointers — the GC never scans it, and each
// record costs 48 bytes instead of 88. At the 10⁶-task scale this is the
// difference between a ~50 MB no-scan buffer and a ~90 MB scanned one.
type crec struct {
	taskID int32
	name   int32 // index into Collector.names
	level  int32
	node   int32
	core   int32
	device int32 // index into Collector.names (devices share the table)
	stage  int32
	start  float64
	end    float64
}

// Collector accumulates and retains records. Add is safe for concurrent
// use (the local backend runs real tasks on multiple goroutines); Observe
// is the lock-free single-writer path the simulated backend uses.
type Collector struct {
	mu     sync.Mutex
	recs   []crec
	names  []string
	byName map[string]int32
	// Last-hit intern caches: a task emits NumStages consecutive records
	// with the same task name and device, and upstream interning makes the
	// repeated strings pointer-identical, so caching the previous hit
	// turns almost every intern into one pointer-equal string compare.
	// Task and device names cache separately — they alternate within one
	// Observe call and would evict each other from a shared slot.
	lastName   string
	lastNameID int32
	lastDev    string
	lastDevID  int32
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// intern returns the dense ID of s in the collector's name table. Repeat
// lookups of runtime-emitted names hit the map's pointer-equality fast
// path: task and device names are themselves interned upstream, so the
// string headers compare equal without a byte comparison.
func (c *Collector) intern(s string) int32 {
	if id, ok := c.byName[s]; ok {
		return id
	}
	if c.byName == nil {
		c.byName = make(map[string]int32, 16)
	}
	id := int32(len(c.names))
	c.names = append(c.names, s)
	c.byName[s] = id
	return id
}

// lookup returns the ID of s, or -1 if no record has mentioned it.
func (c *Collector) lookup(s string) int32 {
	if id, ok := c.byName[s]; ok {
		return id
	}
	return -1
}

// decode rematerializes the public Record form.
func (c *Collector) decode(r crec) Record {
	return Record{
		TaskID: int(r.taskID), TaskName: c.names[r.name], Level: int(r.level),
		Node: int(r.node), Core: int(r.core), Device: c.names[r.device],
		Stage: Stage(r.stage), Start: r.start, End: r.end,
	}
}

// Grow pre-sizes the record buffer for at least n additional records, so a
// run whose record count is known up front (tasks × stages) appends without
// reallocating mid-simulation. Like Observe it belongs to the single-writer
// path and must not race with Add: the simulated backend calls it from
// inside the engine's dispatch loop, where sync locking is forbidden
// (wfsimlint simblock).
func (c *Collector) Grow(n int) {
	if free := cap(c.recs) - len(c.recs); free < n {
		grown := make([]crec, len(c.recs), len(c.recs)+n)
		copy(grown, c.recs)
		c.recs = grown
	}
}

// Observe appends a record without locking — the Sink entry point for the
// single-threaded simulated backend. The empty string bypasses the
// last-hit caches (it is their unset state).
func (c *Collector) Observe(r Record) {
	name := c.lastNameID
	if r.TaskName != c.lastName || r.TaskName == "" {
		name = c.intern(r.TaskName)
		c.lastName, c.lastNameID = r.TaskName, name
	}
	dev := c.lastDevID
	if r.Device != c.lastDev || r.Device == "" {
		dev = c.intern(r.Device)
		c.lastDev, c.lastDevID = r.Device, dev
	}
	c.recs = append(c.recs, crec{
		taskID: int32(r.TaskID), name: name, level: int32(r.Level),
		node: int32(r.Node), core: int32(r.Core), device: dev,
		stage: int32(r.Stage), start: r.Start, end: r.End,
	})
}

// Add appends a record under the collector's lock (safe for concurrent
// producers).
func (c *Collector) Add(r Record) {
	c.mu.Lock()
	c.Observe(r)
	c.mu.Unlock()
}

// Records returns a copy of all records.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, len(c.recs))
	for i, r := range c.recs {
		out[i] = c.decode(r)
	}
	return out
}

// Each calls fn for every record in insertion order, without copying the
// backing slice — the streaming-aggregation path for long multi-workflow
// runs, where Records' per-workflow copy would double peak memory. fn
// must not call back into the collector.
func (c *Collector) Each(fn func(Record)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.recs {
		fn(c.decode(r))
	}
}

// Len returns the number of records.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// MeanStage returns the average duration of a stage over tasks of the given
// type ("" matches every task type) — the paper's "average time per task"
// user-code metrics. The second result is the number of tasks that
// contributed.
func (c *Collector) MeanStage(taskName string, stage Stage) (float64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := int32(-1)
	if taskName != "" {
		if name = c.lookup(taskName); name < 0 {
			return 0, 0
		}
	}
	var sum float64
	n := 0
	for _, r := range c.recs {
		if Stage(r.stage) == stage && (name < 0 || r.name == name) {
			sum += r.end - r.start
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// SumStage returns the total duration of a stage across matching tasks.
func (c *Collector) SumStage(taskName string, stage Stage) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := int32(-1)
	if taskName != "" {
		if name = c.lookup(taskName); name < 0 {
			return 0
		}
	}
	var sum float64
	for _, r := range c.recs {
		if Stage(r.stage) == stage && (name < 0 || r.name == name) {
			sum += r.end - r.start
		}
	}
	return sum
}

// UserCodeMean returns the average full user-code time per task of the
// given type: serial + parallel + CPU-GPU communication (§4.2).
func (c *Collector) UserCodeMean(taskName string) float64 {
	var total float64
	for _, st := range []Stage{StageSerial, StageParallel, StageCommIn, StageCommOut} {
		m, n := c.MeanStage(taskName, st)
		if n > 0 {
			total += m
		}
	}
	return total
}

// MovementPerCore returns the mean (de)serialization time per active CPU
// core — the paper's data-movement overhead metric, which exposes how well
// (de)serialization parallelism matches the available cores.
func (c *Collector) MovementPerCore(stage Stage) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	perCore := map[int]float64{}
	for _, r := range c.recs {
		if Stage(r.stage) == stage {
			perCore[int(r.core)] += r.end - r.start
		}
	}
	if len(perCore) == 0 {
		return 0
	}
	// Sum in core order: float addition is non-associative, so summing in
	// map order would make the reported mean's bits vary run to run.
	cores := make([]int, 0, len(perCore))
	for c := range perCore {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	var sum float64
	for _, c := range cores {
		sum += perCore[c]
	}
	return sum / float64(len(perCore))
}

// LevelSpan returns the wall-clock span of one DAG level: from the first
// stage start to the last stage end among the level's tasks. This is the
// paper's "parallel task execution time", which includes every overhead
// (scheduling, I/O, queueing).
func (c *Collector) LevelSpan(level int) (start, end float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	first := true
	for _, r := range c.recs {
		if int(r.level) != level {
			continue
		}
		if first {
			start, end, first = r.start, r.end, false
			continue
		}
		if r.start < start {
			start = r.start
		}
		if r.end > end {
			end = r.end
		}
	}
	return start, end, !first
}

// Levels returns the sorted set of DAG levels present in the records.
func (c *Collector) Levels() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := map[int]bool{}
	for _, r := range c.recs {
		set[int(r.level)] = true
	}
	out := make([]int, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// MeanLevelSpan averages LevelSpan over every level — the per-iteration
// parallel-task execution time reported in Figures 7 and 10.
func (c *Collector) MeanLevelSpan() float64 {
	levels := c.Levels()
	if len(levels) == 0 {
		return 0
	}
	var sum float64
	for _, l := range levels {
		s, e, ok := c.LevelSpan(l)
		if ok {
			sum += e - s
		}
	}
	return sum / float64(len(levels))
}

// Makespan returns the overall workflow span across all records.
func (c *Collector) Makespan() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.recs) == 0 {
		return 0
	}
	start, end := c.recs[0].start, c.recs[0].end
	for _, r := range c.recs[1:] {
		if r.start < start {
			start = r.start
		}
		if r.end > end {
			end = r.end
		}
	}
	return end - start
}

// TaskNames returns the distinct task types observed, sorted.
func (c *Collector) TaskNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make([]bool, len(c.names))
	for _, r := range c.recs {
		seen[r.name] = true
	}
	out := []string{}
	for id, s := range seen {
		if s {
			out = append(out, c.names[id])
		}
	}
	sort.Strings(out)
	return out
}

// WriteCSV dumps all records as CSV.
func (c *Collector) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "task_id,task_name,level,node,core,device,stage,start,end"); err != nil {
		return err
	}
	for _, r := range c.Records() {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d,%s,%s,%.9f,%.9f\n",
			r.TaskID, r.TaskName, r.Level, r.Node, r.Core, r.Device, r.Stage, r.Start, r.End); err != nil {
			return err
		}
	}
	return nil
}

// WritePRV dumps the records as Paraver-style state lines
// ("1:core:appl:task:thread:start:end:state"), the trace format the paper
// extracted (de)serialization times from. Stage index is used as the state
// value; times are in nanoseconds as Paraver expects integers.
func (c *Collector) WritePRV(w io.Writer) error {
	recs := c.Records()
	var maxEnd float64
	for _, r := range recs {
		if r.End > maxEnd {
			maxEnd = r.End
		}
	}
	if _, err := fmt.Fprintf(w, "#Paraver (wfsim):%d_ns:1(%d):1:1(%d:1)\n",
		int64(maxEnd*1e9), len(recs), len(recs)); err != nil {
		return err
	}
	for _, r := range recs {
		if _, err := fmt.Fprintf(w, "1:%d:1:%d:1:%d:%d:%d\n",
			r.Core+1, r.TaskID+1, int64(r.Start*1e9), int64(r.End*1e9), int(r.Stage)+1); err != nil {
			return err
		}
	}
	return nil
}
