// Package storage implements the two storage architectures the paper
// compares (§3.4, Figure 10): node-local disks and a shared file system
// (GPFS). Both expose block reads and writes as simulated I/O over the
// cluster's contended links, plus the block-location metadata the
// data-locality scheduler consults.
//
// Blocks are identified by their interned datum ID (see dag.Interner), so
// location metadata lives in flat slices indexed by ID — the per-access
// lookup the scheduler and the task lifecycle perform is a bounds check
// and a load, not a string hash.
//
// An access is described, not performed: Read and Write return the
// ordered links (legs) the block's bytes traverse, and the caller's
// activity moves the bytes over each leg in turn on the simulated clock.
//
// With local disks, a block read from the node that holds it costs only
// that node's disk; a remote read streams disk → network (owner's NIC and
// reader's NIC both traversed). With the shared architecture, every access
// crosses the reader's NIC and the cluster-wide GPFS backend pipe, adding
// the network latency and resource contention the paper attributes to
// shared disks.
package storage

import (
	"fmt"

	"wfsim/internal/cluster"
	"wfsim/internal/sim"
)

// Architecture enumerates the paper's storage factor (Table 1, factor g).
type Architecture int

const (
	// Shared is the decoupled processing/storage architecture (GPFS) —
	// the paper's default.
	Shared Architecture = iota
	// Local uses node-local disks.
	Local
)

func (a Architecture) String() string {
	if a == Local {
		return "local disk"
	}
	return "shared disk"
}

// System is a simulated storage architecture.
type System interface {
	// Arch identifies the architecture.
	Arch() Architecture
	// Place records the initial location of a block (Local) or its
	// presence on the backend (Shared). Node is ignored for Shared.
	Place(id int32, node int)
	// Location returns the node holding the block and true, or -1 and
	// false when the block has no node affinity (shared storage or
	// unknown block). The data-locality scheduler uses this.
	Location(id int32) (int, bool)
	// Read returns the legs that stream the block to the reader node. A
	// block the system has no record of is an explicit miss: Read returns
	// (Legs{}, false). In a fault-free run a miss is a placement bug (the
	// runtime asserts on it); under fault injection it means the block
	// died with a node's local disk and must be recovered.
	Read(reader *cluster.Node, id int32) (Legs, bool)
	// Write returns the legs that stream a block from the writer node to
	// storage. A write is committed with Place(id, writer.ID) once its
	// last leg completes: until then the block's new location is not
	// visible, exactly as when the write was one blocking call.
	Write(writer *cluster.Node) Legs
	// Invalidate discards every block whose only copy lives on the given
	// node (a crash takes the node's local disk with it) and returns the
	// number of blocks lost. Shared storage survives node loss untouched
	// and always returns 0.
	Invalidate(node int) int
	// Drop forgets one block (an aborted attempt's write on a crashed
	// node). A no-op for shared storage, where writes are durable.
	Drop(id int32)
}

// Legs is the ordered path of links one block access traverses; the
// access moves its bytes over each leg in turn. At most three links.
type Legs struct {
	links [3]*sim.Link
	n     int
}

// NewLegs returns the path over links, in order. At most three.
func NewLegs(links ...*sim.Link) Legs {
	var l Legs
	l.n = copy(l.links[:], links)
	return l
}

// Len returns the number of legs.
func (l Legs) Len() int { return l.n }

// Leg returns the i-th link on the path.
func (l Legs) Leg(i int) *sim.Link { return l.links[i] }

// LocalDisks is the node-local architecture.
type LocalDisks struct {
	c   *cluster.Cluster
	loc []int32 // datum ID -> holding node, -1 unknown
}

// NewLocal creates a local-disk system over the cluster, pre-sized for
// numData distinct datum IDs (more are accommodated on demand).
func NewLocal(c *cluster.Cluster, numData int) *LocalDisks {
	l := &LocalDisks{c: c, loc: make([]int32, numData)}
	for i := range l.loc {
		l.loc[i] = -1
	}
	return l
}

// grow extends the location table to cover id.
func (l *LocalDisks) grow(id int32) {
	for int(id) >= len(l.loc) {
		l.loc = append(l.loc, -1)
	}
}

// Arch implements System.
func (l *LocalDisks) Arch() Architecture { return Local }

// Place implements System.
func (l *LocalDisks) Place(id int32, node int) {
	l.grow(id)
	l.loc[id] = int32(node)
}

// Location implements System.
func (l *LocalDisks) Location(id int32) (int, bool) {
	if int(id) >= len(l.loc) || l.loc[id] < 0 {
		return -1, false
	}
	return int(l.loc[id]), true
}

// Read implements System. Local hits cost the node disk; remote reads
// stream through the owner's disk, the owner's NIC and the reader's NIC.
// An unplaced block is a miss, not a free local hit — silently treating it
// as local scratch masked placement bugs and made lost blocks
// unobservable.
func (l *LocalDisks) Read(reader *cluster.Node, id int32) (Legs, bool) {
	owner, ok := l.Location(id)
	if !ok {
		return Legs{}, false
	}
	if owner == reader.ID {
		return NewLegs(reader.Disk), true
	}
	ownerNode := l.c.Node(owner)
	return NewLegs(ownerNode.Disk, ownerNode.NIC, reader.NIC), true
}

// Invalidate implements System: a crashed node's disk contents are gone.
func (l *LocalDisks) Invalidate(node int) int {
	lost := 0
	for i, n := range l.loc {
		if n == int32(node) {
			l.loc[i] = -1
			lost++
		}
	}
	return lost
}

// Drop implements System.
func (l *LocalDisks) Drop(id int32) {
	if int(id) < len(l.loc) {
		l.loc[id] = -1
	}
}

// Write implements System. Output blocks land on the writer's local disk,
// which is what makes locality scheduling matter downstream.
func (l *LocalDisks) Write(writer *cluster.Node) Legs { return NewLegs(writer.Disk) }

// SharedDisk is the GPFS-style decoupled architecture.
type SharedDisk struct {
	c     *cluster.Cluster
	known []bool // datum ID -> present on the backend
}

// NewShared creates a shared-disk system over the cluster, pre-sized for
// numData distinct datum IDs.
func NewShared(c *cluster.Cluster, numData int) *SharedDisk {
	return &SharedDisk{c: c, known: make([]bool, numData)}
}

// grow extends the presence table to cover id.
func (s *SharedDisk) grow(id int32) {
	for int(id) >= len(s.known) {
		s.known = append(s.known, false)
	}
}

// Arch implements System.
func (s *SharedDisk) Arch() Architecture { return Shared }

// Place implements System.
func (s *SharedDisk) Place(id int32, node int) {
	s.grow(id)
	s.known[id] = true
}

// Location implements System: shared storage has no node affinity, so the
// locality scheduler gets no signal — matching the paper's finding that
// scheduling-policy changes behave differently on shared disk.
func (s *SharedDisk) Location(id int32) (int, bool) { return -1, false }

// Read implements System: reader NIC + shared backend, both contended.
// A block never written to the backend is a miss.
func (s *SharedDisk) Read(reader *cluster.Node, id int32) (Legs, bool) {
	if int(id) >= len(s.known) || !s.known[id] {
		return Legs{}, false
	}
	return NewLegs(reader.NIC, s.c.Shared), true
}

// Invalidate implements System: the decoupled backend survives node loss.
func (s *SharedDisk) Invalidate(node int) int { return 0 }

// Drop implements System: shared writes are durable once issued.
func (s *SharedDisk) Drop(id int32) {}

// Write implements System: writer NIC + shared backend.
func (s *SharedDisk) Write(writer *cluster.Node) Legs { return NewLegs(writer.NIC, s.c.Shared) }

// New constructs the architecture selected by arch, pre-sized for numData
// distinct datum IDs.
func New(arch Architecture, c *cluster.Cluster, numData int) (System, error) {
	switch arch {
	case Local:
		return NewLocal(c, numData), nil
	case Shared:
		return NewShared(c, numData), nil
	default:
		return nil, fmt.Errorf("storage: unknown architecture %d", arch)
	}
}
