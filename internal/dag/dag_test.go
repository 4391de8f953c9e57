package dag

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestRAWDependency(t *testing.T) {
	g := New()
	w := g.Add("writer", nil, Param{Data: "x", Dir: Out})
	r := g.Add("reader", nil, Param{Data: "x", Dir: In})
	if len(r.Deps()) != 1 || r.Deps()[0] != w.ID {
		t.Fatalf("reader deps = %v, want [%d]", r.Deps(), w.ID)
	}
	if r.Level != 1 || w.Level != 0 {
		t.Fatalf("levels = %d, %d; want 1, 0", r.Level, w.Level)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWAWDependency(t *testing.T) {
	g := New()
	w1 := g.Add("w1", nil, Param{Data: "x", Dir: Out})
	w2 := g.Add("w2", nil, Param{Data: "x", Dir: Out})
	if len(w2.Deps()) != 1 || w2.Deps()[0] != w1.ID {
		t.Fatalf("w2 deps = %v, want [%d]", w2.Deps(), w1.ID)
	}
	r := g.Add("r", nil, Param{Data: "x", Dir: In})
	if len(r.Deps()) != 1 || r.Deps()[0] != w2.ID {
		t.Fatalf("reader depends on %v, want last writer %d", r.Deps(), w2.ID)
	}
}

func TestIndependentReadersParallel(t *testing.T) {
	g := New()
	g.Add("w", nil, Param{Data: "x", Dir: Out})
	for i := 0; i < 4; i++ {
		g.Add("r", nil, Param{Data: "x", Dir: In})
	}
	if got := g.MaxWidth(); got != 4 {
		t.Fatalf("width = %d, want 4 (readers are independent)", got)
	}
	if got := g.MaxHeight(); got != 2 {
		t.Fatalf("height = %d, want 2", got)
	}
}

func TestInOutChain(t *testing.T) {
	// INOUT accumulation serializes: a chain, not a fan-out.
	g := New()
	g.Add("init", nil, Param{Data: "acc", Dir: Out})
	for i := 0; i < 5; i++ {
		g.Add("acc", nil, Param{Data: "acc", Dir: InOut})
	}
	if got := g.MaxHeight(); got != 6 {
		t.Fatalf("height = %d, want 6 (serialized chain)", got)
	}
	if got := g.MaxWidth(); got != 1 {
		t.Fatalf("width = %d, want 1", got)
	}
}

func TestNoWARDependency(t *testing.T) {
	// Versioning semantics: a write after a read does NOT depend on the
	// reader (the reader keeps the old version).
	g := New()
	g.Add("w1", nil, Param{Data: "x", Dir: Out})
	g.Add("r", nil, Param{Data: "x", Dir: In})
	w2 := g.Add("w2", nil, Param{Data: "x", Dir: Out})
	for _, d := range w2.Deps() {
		if g.Task(d).Name == "r" {
			t.Fatal("WAR edge created; versioning should avoid it")
		}
	}
	if g.Version("x") != 2 {
		t.Fatalf("version = %d, want 2", g.Version("x"))
	}
}

func TestDedupEdges(t *testing.T) {
	g := New()
	w := g.Add("w", nil, Param{Data: "a", Dir: Out}, Param{Data: "b", Dir: Out})
	r := g.Add("r", nil, Param{Data: "a", Dir: In}, Param{Data: "b", Dir: In})
	if len(r.Deps()) != 1 {
		t.Fatalf("deps = %v, want single deduplicated edge", r.Deps())
	}
	if len(w.Succs()) != 1 {
		t.Fatalf("succs = %v, want one", w.Succs())
	}
}

func TestLevelsPartitionTasks(t *testing.T) {
	g := New()
	g.Add("a", nil, Param{Data: "x", Dir: Out})
	g.Add("b", nil, Param{Data: "x", Dir: In}, Param{Data: "y", Dir: Out})
	g.Add("c", nil, Param{Data: "x", Dir: In})
	g.Add("d", nil, Param{Data: "y", Dir: In})
	total := 0
	for _, lvl := range g.Levels() {
		total += len(lvl)
	}
	if total != g.Len() {
		t.Fatalf("levels cover %d tasks, want %d", total, g.Len())
	}
	if g.Roots()[0] != 0 || len(g.Roots()) != 1 {
		t.Fatalf("roots = %v, want [0]", g.Roots())
	}
}

func TestFrozenGraphRejectsMutation(t *testing.T) {
	g := New()
	g.Add("a", nil, Param{Data: "x", Dir: Out})
	g.Add("b", nil, Param{Data: "x", Dir: In})
	g.Freeze()
	if s := g.Task(0).Succs(); len(s) != 1 || s[0] != 1 {
		t.Fatalf("succs of a frozen graph = %v, want [1]", s)
	}
	for _, m := range []struct {
		name   string
		mutate func()
	}{
		{"Add", func() { g.Add("c", nil, Param{Data: "x", Dir: In}) }},
		{"DatumID", func() { g.DatumID("y") }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen graph did not panic", m.name)
				}
			}()
			m.mutate()
		}()
	}
	if g.Len() != 2 || g.NumData() != 1 {
		t.Fatalf("frozen graph changed: %d tasks, %d data", g.Len(), g.NumData())
	}
}

func TestCountByName(t *testing.T) {
	g := New()
	g.Add("mm", nil, Param{Data: "a", Dir: Out})
	g.Add("mm", nil, Param{Data: "b", Dir: Out})
	g.Add("add", nil, Param{Data: "a", Dir: In}, Param{Data: "b", Dir: In}, Param{Data: "c", Dir: Out})
	counts := g.CountByName()
	if counts["mm"] != 2 || counts["add"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestDOT(t *testing.T) {
	g := New()
	g.Add("mm", nil, Param{Data: "a", Dir: Out})
	g.Add("add", nil, Param{Data: "a", Dir: In})
	var b strings.Builder
	if err := g.DOT(&b, "test"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph", "t0 -> t1", "fillcolor"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestSummary(t *testing.T) {
	g := New()
	g.Add("mm", nil, Param{Data: "a", Dir: Out})
	g.Add("mm", nil, Param{Data: "b", Dir: Out})
	g.Add("add", nil, Param{Data: "a", Dir: In}, Param{Data: "b", Dir: In})
	s := g.Summary()
	if !strings.Contains(s, "L0: 2×mm") || !strings.Contains(s, "L1: 1×add") {
		t.Fatalf("summary = %q", s)
	}
}

// TestRandomDAGInvariants is a property test: graphs built from random
// parameter patterns are acyclic, level-consistent, and width/height bounds
// hold.
func TestRandomDAGInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		rng := rand.New(rand.NewPCG(seed, 3))
		g := New()
		data := []string{"a", "b", "c", "d", "e", "f"}
		for i := 0; i < n; i++ {
			nparams := rng.IntN(3) + 1
			params := make([]Param, nparams)
			for j := range params {
				params[j] = Param{
					Data: data[rng.IntN(len(data))],
					Dir:  Direction(rng.IntN(3)),
				}
			}
			g.Add("t", nil, params...)
		}
		if g.Validate() != nil {
			return false
		}
		if g.MaxWidth() > g.Len() || g.MaxHeight() > g.Len() {
			return false
		}
		if g.MaxWidth() < 1 || g.MaxHeight() < 1 {
			return false
		}
		// LevelWidths counts exactly what Levels lists.
		levels, widths := g.Levels(), g.LevelWidths()
		if len(levels) != len(widths) {
			return false
		}
		for i, lvl := range levels {
			if len(lvl) != widths[i] {
				return false
			}
		}
		// Every non-root task's level exceeds all of its deps' levels.
		for _, task := range g.Tasks() {
			for _, d := range task.Deps() {
				if g.Task(d).Level >= task.Level {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectionStrings(t *testing.T) {
	if In.String() != "IN" || Out.String() != "OUT" || InOut.String() != "INOUT" {
		t.Fatal("direction stringers broken")
	}
	p := Param{Data: "x", Dir: InOut}
	if !p.Reads() || !p.Writes() {
		t.Fatal("INOUT must read and write")
	}
	if (Param{Dir: In}).Writes() || (Param{Dir: Out}).Reads() {
		t.Fatal("In/Out direction predicates broken")
	}
}
