// Package runtime is the task-based workflow engine at the center of the
// reproduction: the Go analog of PyCOMPSs (§3). Applications submit tasks
// with data-direction annotations; the runtime builds the execution DAG
// from data dependencies, schedules dependency-free tasks onto cluster
// resources with a pluggable policy, and executes each task through the
// paper's processing stages (Figure 4): deserialization, the user code
// (serial fraction, CPU-GPU communication, parallel fraction) and
// serialization.
//
// Two backends share the same workflow definition:
//
//   - SimBackend executes the lifecycle on the deterministic DES over a
//     simulated cluster, producing per-stage virtual timings at paper scale
//     (8-100 GB datasets, 128 cores, 32 GPUs). This is what every
//     experiment uses.
//   - LocalBackend executes the real kernels on goroutine worker pools with
//     materialized blocks, validating that the workflows compute correct
//     results (examples and tests).
package runtime

import (
	"fmt"
	"sort"
	"sync"

	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
)

// ExecFunc is the real computation of a task, used by the local backend.
// It reads and writes materialized blocks through the Store.
type ExecFunc func(s *Store) error

// TaskSpec carries everything the backends need to run one task: the
// analytic cost profile (sim backend) and the real kernel (local backend,
// optional for sim-only workflows).
type TaskSpec struct {
	Profile costmodel.Profile
	Exec    ExecFunc
}

// Workflow is an application expressed as tasks over named data. It wraps
// the dependency DAG with per-datum sizes (for storage I/O and locality
// decisions) and, optionally, materialized input blocks for real execution.
//
// Applications speak datum names (strings); the workflow interns every
// name into the graph's dense int32 datum ID at declaration time and keeps
// all per-datum state in plain slices indexed by that ID, so the simulated
// task hot path never touches a string-keyed map.
type Workflow struct {
	Name  string
	Graph *dag.Graph

	// sizes holds datum bytes indexed by datum ID, used for
	// (de)serialization volumes and locality weights; sized declares
	// which entries have actually been set (a datum may legitimately
	// have size 0).
	sizes []float64
	sized []bool

	// specs holds each task's spec indexed by task ID — stored out of
	// band instead of boxed into dag.Task.Payload, which would cost one
	// heap allocation per task.
	specs []TaskSpec

	// initial holds materialized input blocks for the local backend.
	initial map[string]*dataset.Block

	// frozen marks a validated, immutable workflow (Freeze); levelWidths
	// is its tasks-per-level count, computed once there.
	frozen      bool
	levelWidths []int
}

// NewWorkflow returns an empty workflow.
func NewWorkflow(name string) *Workflow {
	return &Workflow{
		Name:    name,
		Graph:   dag.New(),
		initial: make(map[string]*dataset.Block),
	}
}

// Hint pre-sizes the workflow for a build of about tasks tasks, data
// distinct datums and params total task parameters (see dag.Graph.Hint).
// Estimates only need to be close; construction grows past them correctly.
func (w *Workflow) Hint(tasks, data, params int) {
	w.Graph.Hint(tasks, data, params)
	if tasks > cap(w.specs) {
		s := make([]TaskSpec, len(w.specs), tasks)
		copy(s, w.specs)
		w.specs = s
	}
	if data > cap(w.sizes) {
		sz := make([]float64, len(w.sizes), data)
		copy(sz, w.sizes)
		w.sizes = sz
		sd := make([]bool, len(w.sized), data)
		copy(sd, w.sized)
		w.sized = sd
	}
}

// datumID interns key and grows the size tables to cover it.
func (w *Workflow) datumID(key string) int32 {
	id := w.Graph.DatumID(key)
	for int(id) >= len(w.sizes) {
		w.sizes = append(w.sizes, 0)
		w.sized = append(w.sized, false)
	}
	return id
}

// SetSize declares the serialized size of a datum in bytes. Tasks reading
// the datum deserialize this volume; tasks writing it serialize it.
func (w *Workflow) SetSize(key string, bytes float64) {
	if w.frozen {
		panic("runtime: SetSize on frozen workflow " + w.Name)
	}
	id := w.datumID(key)
	w.sizes[id] = bytes
	w.sized[id] = true
}

// Size returns the declared size of a datum (0 if unknown).
func (w *Workflow) Size(key string) float64 {
	id, ok := w.Graph.Data().Lookup(key)
	if !ok || int(id) >= len(w.sizes) {
		return 0
	}
	return w.sizes[id]
}

// SizeByID returns the declared size of a datum by its interned ID — the
// allocation-free lookup the simulation hot path uses.
func (w *Workflow) SizeByID(id int32) float64 {
	if int(id) >= len(w.sizes) {
		return 0
	}
	return w.sizes[id]
}

// SetInput attaches a materialized block as workflow input data for the
// local backend, and records its size for the sim backend.
func (w *Workflow) SetInput(key string, b *dataset.Block) {
	w.SetSize(key, float64(b.Bytes()))
	w.initial[key] = b
}

// AddTask submits a task: the spec plus its data parameters. Dependencies
// are inferred from parameter directions exactly as in PyCOMPSs.
func (w *Workflow) AddTask(name string, spec TaskSpec, params ...dag.Param) *dag.Task {
	t := w.Graph.Add(name, nil, params...)
	for len(w.specs) < t.ID { // tolerate tasks added via Graph.Add directly
		w.specs = append(w.specs, TaskSpec{})
	}
	w.specs = append(w.specs, spec)
	// Size tables must cover every interned datum for SizeByID.
	for w.Graph.NumData() > len(w.sizes) {
		w.sizes = append(w.sizes, 0)
		w.sized = append(w.sized, false)
	}
	return t
}

// Spec returns the TaskSpec attached to a DAG task.
func (w *Workflow) Spec(t *dag.Task) TaskSpec {
	if t.ID < len(w.specs) {
		return w.specs[t.ID]
	}
	s, ok := t.Payload.(TaskSpec)
	if !ok {
		return TaskSpec{}
	}
	return s
}

// readBytes sums the serialized sizes of the task's read parameters.
func (w *Workflow) readBytes(t *dag.Task) float64 {
	var sum float64
	ids := t.DataIDs()
	for i, p := range t.Params {
		if p.Reads() {
			sum += w.SizeByID(ids[i])
		}
	}
	return sum
}

// writeBytes sums the serialized sizes of the task's written parameters.
func (w *Workflow) writeBytes(t *dag.Task) float64 {
	var sum float64
	ids := t.DataIDs()
	for i, p := range t.Params {
		if p.Writes() {
			sum += w.SizeByID(ids[i])
		}
	}
	return sum
}

// InputIDs returns, in first-use order, the datum ID of every datum that
// is read before any task writes it — the workflow's external input data,
// which the runtime pre-places in storage before execution.
func (w *Workflow) InputIDs() []int32 {
	nd := w.Graph.NumData()
	written := make([]bool, nd)
	seen := make([]bool, nd)
	var out []int32
	for _, t := range w.Graph.Tasks() {
		ids := t.DataIDs()
		for i, p := range t.Params {
			if id := ids[i]; p.Reads() && !written[id] && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		for i, p := range t.Params {
			if p.Writes() {
				written[ids[i]] = true
			}
		}
	}
	return out
}

// InputKeys returns the workflow's external input data as datum names, in
// the same first-use order as InputIDs.
func (w *Workflow) InputKeys() []string {
	ids := w.InputIDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = w.Graph.Data().Name(id)
	}
	return out
}

// Freeze validates the workflow and makes it immutable, so that any
// number of concurrent runs may share it read-only: the graph's lazy
// successor lists are built, the level widths are counted once, and
// AddTask, SetSize and SetInput panic afterwards. Runs skip the
// per-run Validate of a frozen workflow. Freezing twice is a no-op.
func (w *Workflow) Freeze() error {
	if w.frozen {
		return nil
	}
	if err := w.Validate(); err != nil {
		return err
	}
	w.Graph.Freeze()
	w.levelWidths = w.Graph.LevelWidths()
	w.frozen = true
	return nil
}

// Frozen reports whether Freeze has run.
func (w *Workflow) Frozen() bool { return w.frozen }

// LevelWidths returns the number of tasks on each DAG level (see
// dag.Graph.LevelWidths). A frozen workflow returns the widths Freeze
// counted, shared by every caller (do not modify); an unfrozen one counts
// them afresh on every call.
func (w *Workflow) LevelWidths() []int {
	if w.frozen {
		return w.levelWidths
	}
	return w.Graph.LevelWidths()
}

// Validate checks the workflow is runnable: valid DAG, sizes declared for
// every datum.
func (w *Workflow) Validate() error {
	if err := w.Graph.Validate(); err != nil {
		return fmt.Errorf("workflow %s: %w", w.Name, err)
	}
	missing := make([]bool, w.Graph.NumData())
	nMissing := 0
	for _, t := range w.Graph.Tasks() {
		for _, id := range t.DataIDs() {
			if (int(id) >= len(w.sized) || !w.sized[id]) && !missing[id] {
				missing[id] = true
				nMissing++
			}
		}
	}
	if nMissing > 0 {
		keys := make([]string, 0, nMissing)
		for id, m := range missing {
			if m {
				keys = append(keys, w.Graph.Data().Name(int32(id)))
			}
		}
		sort.Strings(keys)
		return fmt.Errorf("workflow %s: %d datum(s) without declared size, e.g. %q",
			w.Name, len(keys), keys[0])
	}
	return nil
}

// Store is the local backend's in-memory data space: materialized blocks
// keyed by datum name. It is safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	data map[string]*dataset.Block
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{data: make(map[string]*dataset.Block)} }

// Get returns the block stored under key, or nil.
func (s *Store) Get(key string) *dataset.Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data[key]
}

// MustGet returns the block stored under key, panicking if absent — for
// kernels whose inputs are guaranteed by DAG ordering.
func (s *Store) MustGet(key string) *dataset.Block {
	b := s.Get(key)
	if b == nil {
		panic(fmt.Sprintf("runtime: datum %q not materialized", key))
	}
	return b
}

// Put stores a block under key.
func (s *Store) Put(key string, b *dataset.Block) {
	s.mu.Lock()
	s.data[key] = b
	s.mu.Unlock()
}

// Len returns the number of stored blocks.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}
