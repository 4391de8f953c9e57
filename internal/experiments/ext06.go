package experiments

import (
	"context"
	"fmt"
	"strings"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/metrics"
	"wfsim/internal/resultcache"
	"wfsim/internal/runner"
	"wfsim/internal/runtime"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
	"wfsim/internal/tables"
)

// Ext6Row is one (shape × cluster × overhead scale × policy) outcome.
type Ext6Row struct {
	Shape     string
	Nodes     int
	Scale     float64
	Policy    sched.Policy
	Makespan  float64
	Decisions int
	CoreUtil  float64
}

// Ext6Result is the scheduler-zoo overhead study: every scheduling policy
// runs the same workflows on a heterogeneous CPU cluster while the
// calibrated per-decision dispatch cost is scaled from zero (an oracle
// master that decides for free) through nominal to far beyond it (a
// congested or remote master). Lookahead schedulers (HEFT, b-level,
// min-min) buy shorter schedules with more expensive decisions — their
// per-decision model grows with queue depth and cluster size — so the
// policy ranking flips as dispatch cost rises: the study reports, per
// workflow shape and cluster size, the smallest scale at which the best
// myopic policy (FIFO/locality) overtakes the best lookahead policy
// (HEFT/b-level). This is the paper's runtime-overhead lens (§4.3) turned
// into a controlled factor.
type Ext6Result struct {
	Rows []Ext6Row
}

// ext6Shape is one workflow shape of the study: "wide" stresses queue
// depth (many ready tasks per wave, the per-rank overhead term), "deep"
// stresses placement (a long narrow chain on a speed-skewed cluster).
type ext6Shape struct {
	name       string
	grid       int64
	iterations int
}

var ext6Shapes = []ext6Shape{
	{name: "wide", grid: 64, iterations: 2},
	{name: "deep", grid: 24, iterations: 6},
}

// ext6Scales sweeps the SchedOverheadScale knob across four orders of
// magnitude; 0 isolates pure schedule quality, 1 is the calibrated
// COMPSs-like master, and the upper decades stand in for congested or
// wide-area masters where each decision costs whole task-lengths.
var ext6Scales = []float64{0, 1, 16, 256, 4096}

var ext6Nodes = []int{4, 8}

// ext6Policies orders the zoo for the report: myopic policies first, then
// lookahead, then work stealing.
var ext6Policies = []sched.Policy{
	sched.FIFO, sched.Locality, sched.HEFT, sched.BLevel, sched.MinMin, sched.WorkSteal,
}

type ext6Spec struct {
	shape ext6Shape
	nodes int
	scale float64
	pol   sched.Policy
}

// ext6Speeds alternates nominal and 0.6-speed nodes: the heterogeneity
// that gives earliest-finish-time placement something to exploit.
func ext6Speeds(nodes int) []float64 {
	speeds := make([]float64, nodes)
	for i := range speeds {
		speeds[i] = 1.0
		if i%2 == 1 {
			speeds[i] = 0.6
		}
	}
	return speeds
}

func ext6Run(ctx context.Context, s ext6Spec) (Ext6Row, error) {
	wf, err := runner.Workflow(ctx, kmeans.Config{
		Dataset: dataset.KMeansSmall, Grid: s.shape.grid, Clusters: 10,
		Iterations: s.shape.iterations,
	}, kmeans.Build)
	if err != nil {
		return Ext6Row{}, err
	}
	params := costmodel.DefaultParams()
	params.SchedOverheadScale = s.scale
	agg := metrics.NewAggregates()
	var arena runtime.Arena
	res, err := runtime.RunSim(wf, runtime.SimConfig{
		// Two cores per node keeps every wave wider than the cluster's
		// total core count, so per-node queueing is real and placement
		// quality separates the policies at scale 0.
		Cluster: cluster.Spec{
			Name: fmt.Sprintf("hetero%d", s.nodes), Nodes: s.nodes,
			CoresPerNode: 2, GPUsPerNode: 1,
		},
		Params:    &params,
		Device:    costmodel.CPU,
		Storage:   storage.Shared,
		Policy:    s.pol,
		NodeSpeed: ext6Speeds(s.nodes),
		Seed:      11,
		Sink:      agg,
		Arena:     &arena,
	})
	if err != nil {
		return Ext6Row{}, err
	}
	return Ext6Row{
		Shape: s.shape.name, Nodes: s.nodes, Scale: s.scale, Policy: s.pol,
		Makespan: res.Makespan, Decisions: res.SchedDecisions,
		CoreUtil: res.CoreUtilization,
	}, nil
}

func runExt6(ctx context.Context, eng *runner.Engine) (Result, error) {
	var specs []ext6Spec
	for _, shape := range ext6Shapes {
		for _, nodes := range ext6Nodes {
			for _, scale := range ext6Scales {
				for _, pol := range ext6Policies {
					specs = append(specs, ext6Spec{shape: shape, nodes: nodes, scale: scale, pol: pol})
				}
			}
		}
	}
	rows, err := runner.Map(ctx, eng, "ext6", specs,
		func(s ext6Spec) string {
			return resultcache.KeyOf("ext6", s.shape.name, s.nodes, s.scale, int(s.pol)).Hex()
		},
		ext6Run)
	if err != nil {
		return nil, err
	}
	return &Ext6Result{Rows: rows}, nil
}

// Ext6Group collects one (shape, nodes) block of rows in scale-major
// order, as produced by runExt6.
type Ext6Group struct {
	Shape string
	Nodes int
	Rows  []Ext6Row
}

// Groups splits the flat row list back into (shape, nodes) blocks.
func (r *Ext6Result) Groups() []Ext6Group {
	var out []Ext6Group
	for _, row := range r.Rows {
		if n := len(out); n == 0 || out[n-1].Shape != row.Shape || out[n-1].Nodes != row.Nodes {
			out = append(out, Ext6Group{Shape: row.Shape, Nodes: row.Nodes})
		}
		out[len(out)-1].Rows = append(out[len(out)-1].Rows, row)
	}
	return out
}

// bestAt returns the lowest makespan among pols at one overhead scale, or
// +Inf when absent.
func (g Ext6Group) bestAt(scale float64, pols ...sched.Policy) float64 {
	best := -1.0
	for _, row := range g.Rows {
		if row.Scale != scale {
			continue
		}
		for _, p := range pols {
			if row.Policy == p && (best < 0 || row.Makespan < best) {
				best = row.Makespan
			}
		}
	}
	return best
}

// FlipScale returns the smallest swept overhead scale at which the best
// myopic policy (FIFO or locality) strictly beats the best lookahead
// policy (HEFT or b-level), and whether such a scale exists in the sweep.
func (g Ext6Group) FlipScale() (float64, bool) {
	for _, scale := range ext6Scales {
		myopic := g.bestAt(scale, sched.FIFO, sched.Locality)
		lookahead := g.bestAt(scale, sched.HEFT, sched.BLevel)
		if myopic > 0 && lookahead > 0 && myopic < lookahead {
			return scale, true
		}
	}
	return 0, false
}

// Render implements Result.
func (r *Ext6Result) Render() string {
	var b strings.Builder
	b.WriteString("Extension: scheduler zoo under a calibrated dispatch-cost model\n")
	b.WriteString("(K-means on CPU, shared disk, alternating 1.0/0.6 node speeds;\n")
	b.WriteString("SchedOverheadScale multiplies every per-decision master cost)\n\n")
	for _, g := range r.Groups() {
		t := tables.New(fmt.Sprintf("shape %s, %d nodes — makespan (s) by overhead scale", g.Shape, g.Nodes),
			append([]string{"policy"}, ext6ScaleHeaders()...)...)
		for _, pol := range ext6Policies {
			row := []string{pol.Describe()}
			for _, scale := range ext6Scales {
				cell := "-"
				for _, rr := range g.Rows {
					if rr.Policy == pol && rr.Scale == scale {
						cell = tables.FormatFloat(rr.Makespan)
					}
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
		b.WriteString(t.String())
		if scale, ok := g.FlipScale(); ok {
			fmt.Fprintf(&b, "ranking flip at scale %g: best myopic policy overtakes best lookahead policy\n\n", scale)
		} else {
			b.WriteString("no ranking flip within the swept scales\n\n")
		}
	}
	b.WriteString("At scale 0 the lookahead schedulers win: critical-path priorities and\n")
	b.WriteString("earliest-finish-time placement exploit the speed skew for free. Their\n")
	b.WriteString("decisions are the expensive kind, though — the per-decision model grows\n")
	b.WriteString("with queue depth and cluster size — so scaling dispatch cost up inverts\n")
	b.WriteString("the ranking: a capacity-1 master serializes grants, the schedule drains\n")
	b.WriteString("at decision speed, and the cheapest policy wins regardless of schedule\n")
	b.WriteString("quality. Where the flip lands depends on the shape: wide waves deepen the\n")
	b.WriteString("queue and tax per-rank scans; deep chains keep queues short and preserve\n")
	b.WriteString("the lookahead advantage longer.\n")
	return b.String()
}

func ext6ScaleHeaders() []string {
	out := make([]string, len(ext6Scales))
	for i, s := range ext6Scales {
		out[i] = fmt.Sprintf("×%g", s)
	}
	return out
}

func init() {
	register(Experiment{
		ID:    "ext6",
		Title: "Extension: scheduler zoo vs dispatch cost — where lookahead stops paying",
		Run:   runExt6,
	})
}
