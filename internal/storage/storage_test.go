package storage

import (
	"testing"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/sim"
)

const blk int32 = 3

func buildCluster(t *testing.T) (*sim.Engine, *cluster.Cluster) {
	t.Helper()
	eng := sim.New()
	c, err := cluster.Build(eng, cluster.Spec{Name: "t", Nodes: 4, CoresPerNode: 2, GPUsPerNode: 1},
		costmodel.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

// access moves one block's bytes over its legs in order, the way a task's
// storage stage does: a step machine that records when it started and
// when its last leg completed, then runs onDone (a write's commit).
type access struct {
	act        sim.Activity
	legs       Legs
	leg        int
	bytes      float64
	start, end float64
	onDone     func()
}

// traverse starts an access of bytes over legs after delay seconds.
func traverse(eng *sim.Engine, delay float64, legs Legs, bytes float64) *access {
	a := &access{legs: legs, leg: -1, bytes: bytes}
	a.act.Init(eng, a)
	eng.Start(&a.act, delay)
	return a
}

func (a *access) Step() {
	if a.leg < 0 {
		a.start, a.leg = a.act.Now(), 0
	}
	for a.leg < a.legs.Len() {
		l := a.legs.Leg(a.leg)
		a.leg++
		if !l.Transfer(&a.act, a.bytes) {
			return
		}
	}
	a.end = a.act.Now()
	if a.onDone != nil {
		a.onDone()
	}
}

// duration is the access's I/O time; valid once the engine has run.
func (a *access) duration() float64 { return a.end - a.start }

// mustRead returns the legs of a read that must hit.
func mustRead(t *testing.T, sys System, reader *cluster.Node, id int32) Legs {
	t.Helper()
	legs, ok := sys.Read(reader, id)
	if !ok {
		t.Fatalf("read of block %d missed", id)
	}
	return legs
}

func TestLocalReadLocalVsRemote(t *testing.T) {
	eng, c := buildCluster(t)
	sys := NewLocal(c, 4)
	sys.Place(blk, 0)
	local := traverse(eng, 0, mustRead(t, sys, c.Node(0), blk), 100e6)
	// The remote read starts late to avoid contention with the local one.
	remote := traverse(eng, 10, mustRead(t, sys, c.Node(1), blk), 100e6)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n := local.legs.Len(); n != 1 {
		t.Fatalf("local hit has %d legs, want 1 (the node disk)", n)
	}
	if n := remote.legs.Len(); n != 3 {
		t.Fatalf("remote read has %d legs, want 3 (owner disk, owner NIC, reader NIC)", n)
	}
	localT, remoteT := local.duration(), remote.duration()
	if localT <= 0 || remoteT <= 0 {
		t.Fatal("reads did not take time")
	}
	if remoteT <= localT {
		t.Fatalf("remote read (%v) should be slower than local (%v)", remoteT, localT)
	}
}

func TestLocalWriteRelocates(t *testing.T) {
	eng, c := buildCluster(t)
	sys := NewLocal(c, 4)
	sys.Place(blk, 0)
	w := traverse(eng, 0, sys.Write(c.Node(3)), 1e6)
	w.onDone = func() { sys.Place(blk, 3) }
	// Mid-write the block is still where it was: the new location is
	// committed only once the last leg completes.
	eng.Schedule(1e-6, func() {
		if n, _ := sys.Location(blk); n != 0 {
			t.Errorf("location = %d mid-write, want 0", n)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	n, ok := sys.Location(blk)
	if !ok || n != 3 {
		t.Fatalf("location = %d,%v; want 3,true", n, ok)
	}
}

func TestLocalUnknownKeyIsMiss(t *testing.T) {
	// Regression: an unplaced block used to be silently served as a free
	// "local scratch" hit, masking placement bugs and making lost blocks
	// unobservable. It must be an explicit miss with zero simulated I/O.
	eng, c := buildCluster(t)
	sys := NewLocal(c, 4)
	if _, ok := sys.Location(int32(9)); ok {
		t.Fatal("unknown key located")
	}
	legs, ok := sys.Read(c.Node(2), int32(9))
	if ok {
		t.Fatal("unknown block read reported a hit")
	}
	if legs.Len() != 0 {
		t.Fatalf("miss has %d legs of I/O, want 0", legs.Len())
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 0 {
		t.Fatalf("miss cost %v seconds of I/O, want 0", eng.Now())
	}
}

func TestSharedUnknownKeyIsMiss(t *testing.T) {
	eng, c := buildCluster(t)
	sys := NewShared(c, 4)
	legs, ok := sys.Read(c.Node(0), int32(9))
	if ok || legs.Len() != 0 {
		t.Fatalf("unknown shared block read = (%d legs, %v), want (0, false)", legs.Len(), ok)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 0 {
		t.Fatalf("miss cost %v seconds of I/O, want 0", eng.Now())
	}
}

func TestLocalInvalidateAndDrop(t *testing.T) {
	_, c := buildCluster(t)
	sys := NewLocal(c, 8)
	sys.Place(int32(0), 1)
	sys.Place(int32(1), 1)
	sys.Place(int32(2), 2)
	if lost := sys.Invalidate(1); lost != 2 {
		t.Fatalf("Invalidate(1) lost %d blocks, want 2", lost)
	}
	if _, ok := sys.Location(int32(0)); ok {
		t.Fatal("invalidated block still located")
	}
	if n, ok := sys.Location(int32(2)); !ok || n != 2 {
		t.Fatal("unrelated block lost by Invalidate")
	}
	sys.Drop(int32(2))
	if _, ok := sys.Location(int32(2)); ok {
		t.Fatal("dropped block still located")
	}
}

func TestSharedSurvivesInvalidate(t *testing.T) {
	_, c := buildCluster(t)
	sys := NewShared(c, 4)
	sys.Place(blk, 0)
	if lost := sys.Invalidate(0); lost != 0 {
		t.Fatalf("shared Invalidate lost %d blocks, want 0", lost)
	}
	sys.Drop(blk) // durable: must be a no-op
	if _, ok := sys.Read(c.Node(1), blk); !ok {
		t.Fatal("shared block lost across node invalidation")
	}
}

func TestSharedNoAffinity(t *testing.T) {
	eng, c := buildCluster(t)
	sys := NewShared(c, 4)
	sys.Place(blk, 2)
	if _, ok := sys.Location(blk); ok {
		t.Fatal("shared storage must report no node affinity")
	}
	r := traverse(eng, 0, mustRead(t, sys, c.Node(1), blk), 50e6)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d := r.duration(); d <= 0 {
		t.Fatal("read took no time")
	}
	if c.Shared.BytesMoved() != 50e6 {
		t.Fatalf("shared backend moved %v bytes", c.Shared.BytesMoved())
	}
}

func TestSharedContention(t *testing.T) {
	// Two simultaneous shared reads of equal size must finish together at
	// ~2x the solo duration (backend fair sharing).
	eng, c := buildCluster(t)
	sys := NewShared(c, 4)
	sys.Place(int32(0), 0)
	sys.Place(int32(1), 0)
	solo := func() float64 {
		e2, c2 := buildCluster(t)
		s2 := NewShared(c2, 4)
		s2.Place(int32(0), 0)
		r := traverse(e2, 0, mustRead(t, s2, c2.Node(0), int32(0)), 500e6)
		if err := e2.Run(); err != nil {
			t.Fatal(err)
		}
		return r.duration()
	}()
	a := traverse(eng, 0, mustRead(t, sys, c.Node(0), int32(0)), 500e6)
	b := traverse(eng, 0, mustRead(t, sys, c.Node(1), int32(1)), 500e6)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	d1, d2 := a.duration(), b.duration()
	if d1 < solo*1.5 || d2 < solo*1.5 {
		t.Fatalf("concurrent reads %v/%v should be ≈2x solo %v", d1, d2, solo)
	}
}

func TestSharedSlowerThanLocalHit(t *testing.T) {
	// Same volume: a local-disk hit should beat the shared path for these
	// parameters (Observation O5/O6 prerequisite: local < shared).
	engL, cL := buildCluster(t)
	local := NewLocal(cL, 4)
	local.Place(blk, 0)
	traverse(engL, 0, mustRead(t, local, cL.Node(0), blk), 200e6)
	if err := engL.Run(); err != nil {
		t.Fatal(err)
	}
	engS, cS := buildCluster(t)
	shared := NewShared(cS, 4)
	shared.Place(blk, 0)
	traverse(engS, 0, mustRead(t, shared, cS.Node(0), blk), 200e6)
	if err := engS.Run(); err != nil {
		t.Fatal(err)
	}
	// A single uncontended GPFS stream may beat one local disk; the paper's
	// "local faster" claim concerns aggregate bandwidth under load. Check
	// the aggregate: 8 concurrent readers.
	engL2, cL2 := buildCluster(t)
	local2 := NewLocal(cL2, 4)
	for i := 0; i < 4; i++ {
		local2.Place(key(i), i)
		traverse(engL2, 0, mustRead(t, local2, cL2.Node(i), key(i)), 500e6)
	}
	if err := engL2.Run(); err != nil {
		t.Fatal(err)
	}
	endL := engL2.Now()
	engS2, cS2 := buildCluster(t)
	shared2 := NewShared(cS2, 4)
	for i := 0; i < 4; i++ {
		shared2.Place(key(i), 0)
		traverse(engS2, 0, mustRead(t, shared2, cS2.Node(i), key(i)), 500e6)
	}
	if err := engS2.Run(); err != nil {
		t.Fatal(err)
	}
	endS := engS2.Now()
	if endS <= endL {
		t.Fatalf("aggregate shared (%v) should be slower than aggregate local (%v)", endS, endL)
	}
}

func key(i int) int32 { return int32(i) }

func TestNewFactory(t *testing.T) {
	_, c := buildCluster(t)
	for _, arch := range []Architecture{Local, Shared} {
		s, err := New(arch, c, 4)
		if err != nil {
			t.Fatal(err)
		}
		if s.Arch() != arch {
			t.Fatalf("arch = %v, want %v", s.Arch(), arch)
		}
	}
	if _, err := New(Architecture(99), c, 4); err == nil {
		t.Fatal("unknown architecture accepted")
	}
	if Local.String() != "local disk" || Shared.String() != "shared disk" {
		t.Fatal("stringers broken")
	}
}
