// Package dag builds and analyzes the execution DAG of a task-based
// workflow (§3.1 of the paper). Tasks are added in program order with
// typed data parameters; edges are inferred automatically from data
// dependencies, exactly like PyCOMPSs: a task reading a datum depends on
// that datum's last writer (read-after-write), and a task writing a datum
// depends on the previous writer (write-after-write). Write-after-read
// hazards do not create edges because, as in COMPSs, each write conceptually
// creates a new version of the datum (the d3v1, d5v2 … labels of the
// paper's Figure 6); earlier readers keep the old version.
//
// The DAG's shape carries the paper's key structural features: its maximum
// width is the degree of task-level parallelism and its height the degree
// of task dependency (both appear in the Figure 11 correlation analysis).
//
// Datum names are application-chosen strings (e.g. "A[0,1]") at the API
// surface, but the graph interns every name into a dense int32 datum ID on
// first touch. All internal bookkeeping — last-writer tracking, version
// counts — and every layer below (workflow sizes, storage locations,
// scheduler locality scoring) is indexed by datum ID, so the steady-state
// task lifecycle never hashes a string.
package dag

import (
	"fmt"
	"io"
	"strings"
)

// Direction declares how a task uses a data parameter, mirroring
// PyCOMPSs' IN/OUT/INOUT parameter annotations.
type Direction int

const (
	// In marks data the task only reads.
	In Direction = iota
	// Out marks data the task creates or fully overwrites.
	Out
	// InOut marks data the task reads and updates in place.
	InOut
)

func (d Direction) String() string {
	switch d {
	case In:
		return "IN"
	case Out:
		return "OUT"
	case InOut:
		return "INOUT"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Param is one data parameter of a task: a datum name plus an access
// direction. Datum names are application-chosen (e.g. "A[0,1]").
type Param struct {
	Data string
	Dir  Direction
}

// Reads reports whether the parameter reads its datum.
func (p Param) Reads() bool { return p.Dir == In || p.Dir == InOut }

// Writes reports whether the parameter writes its datum.
func (p Param) Writes() bool { return p.Dir == Out || p.Dir == InOut }

// Interner maps datum names to dense int32 IDs and back. IDs are assigned
// in first-touch order starting at 0, so they index plain slices in every
// layer that tracks per-datum state.
type Interner struct {
	ids   map[string]int32
	names []string
}

// NewInterner returns an empty interner, pre-sized for workflow-scale
// datum counts so steady map growth does not dominate DAG construction.
func NewInterner() *Interner {
	return &Interner{
		ids:   make(map[string]int32, 1024),
		names: make([]string, 0, 1024),
	}
}

// Intern returns the ID of name, assigning the next dense ID on first use.
func (in *Interner) Intern(name string) int32 {
	if id, ok := in.ids[name]; ok {
		return id
	}
	id := int32(len(in.names))
	in.names = append(in.names, name)
	in.ids[name] = id
	return id
}

// Lookup returns the ID of name if it has been interned.
func (in *Interner) Lookup(name string) (int32, bool) {
	id, ok := in.ids[name]
	return id, ok
}

// Name returns the name interned under id.
func (in *Interner) Name(id int32) string { return in.names[id] }

// Len returns the number of interned names (== 1 + the largest ID).
func (in *Interner) Len() int { return len(in.names) }

// Task is a node of the DAG.
type Task struct {
	// ID is the task's generation order (0-based) — the key the FIFO
	// scheduling policy sorts by.
	ID int
	// Name is the task type (e.g. "matmul_func"); per-type aggregation of
	// metrics (§4.2) groups on it.
	Name string
	// Params are the data parameters that induced the task's edges.
	// Graph.Add copies them, so the caller's slice is not retained.
	Params []Param
	// Payload carries runtime-specific data (cost profile, kernel
	// function); the dag package never inspects it.
	Payload any
	// Level is the task's depth: 0 for source tasks, otherwise
	// 1 + max(level of predecessors). Populated by Graph.Add.
	Level int

	dataIDs []int32 // interned datum ID of each Param, same indexing
	deps    []int   // predecessor task IDs, ascending, deduplicated
	succs   []int   // successor task IDs in insertion order (built lazily)
	g       *Graph
}

// Deps returns the task's predecessor IDs (do not modify).
func (t *Task) Deps() []int { return t.deps }

// Succs returns the task's successor IDs (do not modify).
func (t *Task) Succs() []int {
	if t.g != nil {
		t.g.ensureSuccs()
	}
	return t.succs
}

// DataIDs returns the interned datum ID of each parameter, parallel to
// Params (do not modify).
func (t *Task) DataIDs() []int32 { return t.dataIDs }

// Graph is an execution DAG under construction. The zero value is not
// usable; construct with New.
//
// Tasks, their parameter lists and their dependency lists are carved out
// of slab arenas owned by the graph, so building an n-task DAG costs O(log
// n) slab allocations instead of O(n) small ones — the difference between
// a 100k-task build thrashing the allocator and not.
type Graph struct {
	tasks []*Task
	data  *Interner

	lastWriter []int32 // datum ID -> task ID of last writer, -1 if none
	versions   []int32 // datum ID -> version count (for labels)

	taskArena  []Task  // current task slab; never moved once handed out
	paramArena []Param // current Param slab
	idArena    []int32 // current datum-ID slab
	depArena   []int   // current dependency slab

	succsBuilt bool // successor lists are up to date
	succArena  []int
	succCounts []int // reusable per-task counter/cursor scratch

	frozen bool // Freeze ran: no further Add or DatumID interning
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{data: NewInterner()}
}

// Hint pre-sizes the graph for a build of about tasks tasks, data
// distinct datums and params total task parameters, collapsing the
// geometric slab growth (and its copying) into one exact allocation per
// arena. A builder that knows its counts — every generator-style workload
// does — calls this once before the first Add; estimates only need to be
// close, construction still grows past them correctly.
func (g *Graph) Hint(tasks, data, params int) {
	if tasks > cap(g.tasks) {
		t := make([]*Task, len(g.tasks), tasks)
		copy(t, g.tasks)
		g.tasks = t
	}
	if free := cap(g.taskArena) - len(g.taskArena); tasks-len(g.tasks) > free {
		g.taskArena = make([]Task, 0, tasks-len(g.tasks))
	}
	if cap(g.paramArena)-len(g.paramArena) < params {
		g.paramArena = make([]Param, 0, params)
	}
	if cap(g.idArena)-len(g.idArena) < params {
		g.idArena = make([]int32, 0, params)
	}
	if cap(g.depArena)-len(g.depArena) < params {
		g.depArena = make([]int, 0, params)
	}
	if data > cap(g.lastWriter) {
		lw := make([]int32, len(g.lastWriter), data)
		copy(lw, g.lastWriter)
		g.lastWriter = lw
		v := make([]int32, len(g.versions), data)
		copy(v, g.versions)
		g.versions = v
	}
	g.data.Hint(data)
}

// Hint pre-sizes the interner for about data distinct names.
func (in *Interner) Hint(data int) {
	if data > cap(in.names) {
		n := make([]string, len(in.names), data)
		copy(n, in.names)
		in.names = n
	}
	if len(in.ids) == 0 && data > 1024 {
		in.ids = make(map[string]int32, data)
	}
}

// Data returns the graph's datum interner, shared with every layer that
// keys per-datum state by ID.
func (g *Graph) Data() *Interner { return g.data }

// NumData returns the number of distinct datum names seen so far.
func (g *Graph) NumData() int { return g.data.Len() }

// Freeze builds the successor lists and makes the graph immutable: Add
// and DatumID panic afterwards. A frozen graph is only ever read, so any
// number of goroutines may walk it concurrently.
func (g *Graph) Freeze() {
	g.ensureSuccs()
	g.frozen = true
}

// DatumID interns name and grows the per-datum bookkeeping to cover it.
// All datum IDs handed to the rest of the stack come from here (or from
// the workflow layer calling Intern plus its own growth).
func (g *Graph) DatumID(name string) int32 {
	if g.frozen {
		panic("dag: DatumID on a frozen graph")
	}
	id := g.data.Intern(name)
	for int(id) >= len(g.lastWriter) {
		g.lastWriter = append(g.lastWriter, -1)
		g.versions = append(g.versions, 0)
	}
	return id
}

// allocTask returns a stable pointer to a zeroed Task from the slab arena.
func (g *Graph) allocTask() *Task {
	if len(g.taskArena) == cap(g.taskArena) {
		c := 2 * cap(g.taskArena)
		if c < 64 {
			c = 64
		} else if c > 8192 {
			c = 8192
		}
		g.taskArena = make([]Task, 0, c)
	}
	g.taskArena = g.taskArena[:len(g.taskArena)+1]
	return &g.taskArena[len(g.taskArena)-1]
}

// allocParams returns a full-capacity slice of n Params from the slab
// arena. When the current slab is exhausted a fresh one is allocated; old
// slabs stay alive through the task slices pointing into them.
func (g *Graph) allocParams(n int) []Param {
	if cap(g.paramArena)-len(g.paramArena) < n {
		c := 2 * cap(g.paramArena)
		if c < 256 {
			c = 256
		}
		if c < n {
			c = n
		}
		g.paramArena = make([]Param, 0, c)
	}
	s := g.paramArena[len(g.paramArena) : len(g.paramArena)+n : len(g.paramArena)+n]
	g.paramArena = g.paramArena[:len(g.paramArena)+n]
	return s
}

// allocIDs is allocParams for datum-ID slices.
func (g *Graph) allocIDs(n int) []int32 {
	if cap(g.idArena)-len(g.idArena) < n {
		c := 2 * cap(g.idArena)
		if c < 256 {
			c = 256
		}
		if c < n {
			c = n
		}
		g.idArena = make([]int32, 0, c)
	}
	s := g.idArena[len(g.idArena) : len(g.idArena)+n : len(g.idArena)+n]
	g.idArena = g.idArena[:len(g.idArena)+n]
	return s
}

// reserveDeps returns an empty slice with capacity n at the dep slab's
// tail. The caller fills it (staying within cap) and commits the bytes
// actually used by advancing g.depArena itself.
func (g *Graph) reserveDeps(n int) []int {
	if cap(g.depArena)-len(g.depArena) < n {
		c := 2 * cap(g.depArena)
		if c < 256 {
			c = 256
		}
		if c < n {
			c = n
		}
		g.depArena = make([]int, 0, c)
	}
	return g.depArena[len(g.depArena) : len(g.depArena) : len(g.depArena)+n]
}

// Add appends a task in generation order, inferring its dependencies from
// the data parameters, and returns it. Edges always point from lower to
// higher IDs, so the graph is acyclic by construction and insertion order
// is a valid topological order. The params slice is copied.
func (g *Graph) Add(name string, payload any, params ...Param) *Task {
	if g.frozen {
		panic("dag: Add on a frozen graph")
	}
	t := g.allocTask()
	t.ID = len(g.tasks)
	t.Name = name
	t.Payload = payload
	t.g = g
	t.Params = g.allocParams(len(params))
	copy(t.Params, params)
	t.dataIDs = g.allocIDs(len(params))
	for i := range params {
		t.dataIDs[i] = g.DatumID(params[i].Data)
	}

	// Dependencies: RAW and WAW both edge on the last writer. Dedup via
	// insertion into the small sorted deps slice — a task has a handful of
	// params, so this beats a per-task map by a wide margin.
	deps := g.reserveDeps(len(params))
	for i, p := range params {
		if !p.Reads() && !p.Writes() {
			continue
		}
		w := g.lastWriter[t.dataIDs[i]]
		if w < 0 {
			continue
		}
		d := int(w)
		pos := len(deps)
		for pos > 0 && deps[pos-1] > d {
			pos--
		}
		if pos > 0 && deps[pos-1] == d {
			continue
		}
		deps = deps[:len(deps)+1]
		copy(deps[pos+1:], deps[pos:])
		deps[pos] = d
	}
	t.deps = deps[:len(deps):len(deps)]
	g.depArena = g.depArena[:len(g.depArena)+len(deps)] // commit the used prefix

	level := 0
	for _, d := range t.deps {
		if lvl := g.tasks[d].Level + 1; lvl > level {
			level = lvl
		}
	}
	t.Level = level
	for i, p := range params {
		if p.Writes() {
			id := t.dataIDs[i]
			g.lastWriter[id] = int32(t.ID)
			g.versions[id]++
		}
	}
	g.tasks = append(g.tasks, t)
	g.succsBuilt = false
	return t
}

// ensureSuccs (re)builds every task's successor list in one pass over the
// edge set: exact-size slices carved from a single arena, appended in task
// ID order — which is exactly the insertion order incremental building
// would produce.
func (g *Graph) ensureSuccs() {
	if g.succsBuilt {
		return
	}
	if cap(g.succCounts) < len(g.tasks) || cap(g.succArena) < g.edgeCount() {
		g.growSuccScratch()
	}
	counts := g.succCounts[:len(g.tasks)]
	clear(counts)
	total := 0
	for _, t := range g.tasks {
		for _, d := range t.deps {
			counts[d]++
			total++
		}
	}
	arena := g.succArena[:total]
	off := 0
	for _, t := range g.tasks {
		n := counts[t.ID]
		t.succs = arena[off : off+n : off+n]
		counts[t.ID] = 0 // becomes the fill cursor below
		off += n
	}
	// Indexed writes in task-ID order — exactly the insertion order
	// incremental building would produce, with no append in sight.
	for _, t := range g.tasks {
		for _, d := range t.deps {
			dt := g.tasks[d]
			dt.succs[counts[d]] = t.ID
			counts[d]++
		}
	}
	g.succsBuilt = true
}

func (g *Graph) edgeCount() int {
	total := 0
	for _, t := range g.tasks {
		total += len(t.deps)
	}
	return total
}

// growSuccScratch (re)sizes the successor-construction scratch to the
// current graph. Cold by construction: it runs when the graph has grown
// past the scratch high-water mark — once per graph shape, after which
// every rebuild reuses the buffers allocation-free.
func (g *Graph) growSuccScratch() {
	g.succCounts = make([]int, len(g.tasks)) //wfsimlint:allow hotalloc
	g.succArena = make([]int, g.edgeCount()) //wfsimlint:allow hotalloc
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// Task returns the task with the given ID.
func (g *Graph) Task(id int) *Task { return g.tasks[id] }

// Tasks returns all tasks in generation order (do not modify the slice).
func (g *Graph) Tasks() []*Task { return g.tasks }

// Version returns how many times the datum has been written — the vN
// suffix in the paper's Figure 6 node labels.
func (g *Graph) Version(data string) int {
	id, ok := g.data.Lookup(data)
	if !ok || int(id) >= len(g.versions) {
		return 0
	}
	return int(g.versions[id])
}

// LevelWidths returns the number of tasks on each DAG level, index 0
// being the sources: the shape Levels describes, counted in one pass
// without materializing the per-level ID lists.
func (g *Graph) LevelWidths() []int {
	if len(g.tasks) == 0 {
		return nil
	}
	maxLevel := 0
	for _, t := range g.tasks {
		if t.Level > maxLevel {
			maxLevel = t.Level
		}
	}
	widths := make([]int, maxLevel+1)
	for _, t := range g.tasks {
		widths[t.Level]++
	}
	return widths
}

// Levels groups task IDs by DAG level, index 0 being the sources.
func (g *Graph) Levels() [][]int {
	if len(g.tasks) == 0 {
		return nil
	}
	maxLevel := 0
	for _, t := range g.tasks {
		if t.Level > maxLevel {
			maxLevel = t.Level
		}
	}
	levels := make([][]int, maxLevel+1)
	for _, t := range g.tasks {
		levels[t.Level] = append(levels[t.Level], t.ID)
	}
	return levels
}

// MaxWidth returns the largest number of tasks on one level: the paper's
// "DAG maximum width" (degree of task parallelism).
func (g *Graph) MaxWidth() int {
	w := 0
	for _, n := range g.LevelWidths() {
		w = max(w, n)
	}
	return w
}

// MaxHeight returns the number of levels: the paper's "DAG maximum height"
// (degree of task dependency).
func (g *Graph) MaxHeight() int { return len(g.LevelWidths()) }

// Roots returns the IDs of tasks with no dependencies.
func (g *Graph) Roots() []int {
	var out []int
	for _, t := range g.tasks {
		if len(t.deps) == 0 {
			out = append(out, t.ID)
		}
	}
	return out
}

// Validate checks structural invariants: edges point forward (acyclicity),
// dep/succ symmetry, and level consistency.
func (g *Graph) Validate() error {
	g.ensureSuccs()
	// Successor lists are built in ascending task-ID order, and tasks
	// iterate their deps in ascending ID order too, so one cursor per
	// producer checks every edge's successor record in O(E) total — a
	// per-edge scan of the producer's successor list would be quadratic
	// for the high-fanout producers broadcast data induces.
	cur := make([]int, len(g.tasks))
	for _, t := range g.tasks {
		want := 0
		for _, d := range t.deps {
			if d >= t.ID {
				return fmt.Errorf("dag: task %d depends on later task %d", t.ID, d)
			}
			succs := g.tasks[d].succs
			for cur[d] < len(succs) && succs[cur[d]] < t.ID {
				cur[d]++
			}
			if cur[d] >= len(succs) || succs[cur[d]] != t.ID {
				return fmt.Errorf("dag: edge %d->%d missing successor record", d, t.ID)
			}
			cur[d]++
			if g.tasks[d].Level+1 > want {
				want = g.tasks[d].Level + 1
			}
		}
		if t.Level != want {
			return fmt.Errorf("dag: task %d level %d, want %d", t.ID, t.Level, want)
		}
	}
	return nil
}

// CountByName returns the number of tasks per task type.
func (g *Graph) CountByName() map[string]int {
	out := make(map[string]int)
	for _, t := range g.tasks {
		out[t.Name]++
	}
	return out
}

// DOT writes the graph in Graphviz format, one node per task colored by
// task type — the rendering used to reproduce the paper's Figure 6.
func (g *Graph) DOT(w io.Writer, title string) error {
	var colors = []string{"lightblue", "white", "lightyellow", "lightpink", "lightgreen", "lightgray"}
	colorOf := map[string]string{}
	names := make([]string, 0)
	for _, t := range g.tasks {
		if _, ok := colorOf[t.Name]; !ok {
			colorOf[t.Name] = colors[len(names)%len(colors)]
			names = append(names, t.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [style=filled, shape=circle];\n", title)
	for _, t := range g.tasks {
		fmt.Fprintf(&b, "  t%d [label=%q, fillcolor=%q];\n", t.ID, fmt.Sprintf("%d", t.ID), colorOf[t.Name])
	}
	for _, t := range g.tasks {
		for _, d := range t.deps {
			fmt.Fprintf(&b, "  t%d -> t%d;\n", d, t.ID)
		}
	}
	fmt.Fprintf(&b, "  label=%q;\n}\n", title)
	_, err := io.WriteString(w, b.String())
	return err
}

// Summary renders a short per-level textual description of the DAG shape,
// e.g. "L0: 16×matmul_func | L1: 8×add_func | ...".
func (g *Graph) Summary() string {
	var parts []string
	for i, lvl := range g.Levels() {
		byName := map[string]int{}
		order := []string{}
		for _, id := range lvl {
			n := g.tasks[id].Name
			if byName[n] == 0 {
				order = append(order, n)
			}
			byName[n]++
		}
		var seg []string
		for _, n := range order {
			seg = append(seg, fmt.Sprintf("%d×%s", byName[n], n))
		}
		parts = append(parts, fmt.Sprintf("L%d: %s", i, strings.Join(seg, "+")))
	}
	return strings.Join(parts, " | ")
}

// CriticalPath returns the longest weighted path through the DAG and its
// length, where weight(t) is the per-task cost supplied by the caller.
// The path is returned as task IDs in execution order. With unit weights
// this is the height; with service-time weights it is the span term of
// Graham's bound — no schedule on any number of processors beats it.
func (g *Graph) CriticalPath(weight func(*Task) float64) ([]int, float64) {
	if len(g.tasks) == 0 {
		return nil, 0
	}
	dist := make([]float64, len(g.tasks))
	prev := make([]int, len(g.tasks))
	best, bestEnd := -1.0, -1
	for _, t := range g.tasks { // insertion order is topological
		w := weight(t)
		if w < 0 {
			w = 0
		}
		d := w
		prev[t.ID] = -1
		for _, dep := range t.deps {
			if dist[dep]+w > d {
				d = dist[dep] + w
				prev[t.ID] = dep
			}
		}
		dist[t.ID] = d
		if d > best {
			best, bestEnd = d, t.ID
		}
	}
	var path []int
	for id := bestEnd; id >= 0; id = prev[id] {
		path = append(path, id)
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, best
}

// TotalWeight sums weight(t) over all tasks: the work term of Graham's
// bound.
func (g *Graph) TotalWeight(weight func(*Task) float64) float64 {
	var sum float64
	for _, t := range g.tasks {
		if w := weight(t); w > 0 {
			sum += w
		}
	}
	return sum
}
