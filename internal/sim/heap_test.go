package sim

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// refEntry is one pending event in the sorted-slice reference queue.
type refEntry struct {
	at  float64
	seq uint64
	id  int
}

// refQueue is the oracle for eventHeap: a slice kept sorted by (at, seq)
// with linear-time updates, simple enough to be right by inspection.
type refQueue []refEntry

func refCmp(a, b refEntry) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func (r *refQueue) insert(e refEntry) {
	i, _ := slices.BinarySearchFunc(*r, e, refCmp)
	*r = slices.Insert(*r, i, e)
}

func (r *refQueue) delete(id int) {
	i := slices.IndexFunc(*r, func(e refEntry) bool { return e.id == id })
	*r = slices.Delete(*r, i, i+1)
}

// heapHarness drives an eventHeap and the reference through the same
// operations over a private node set, mirroring how the engine keys nodes:
// every schedule or reschedule draws a fresh seq, and a pop advances the
// clock to the popped event.
type heapHarness struct {
	h     eventHeap
	ref   refQueue
	nodes []*event
	seq   uint64
	now   float64
}

func (hh *heapHarness) sched(delay float64) {
	hh.seq++
	n := &event{at: hh.now + delay, seq: hh.seq, index: -1}
	id := len(hh.nodes)
	hh.nodes = append(hh.nodes, n)
	hh.h.push(n)
	hh.ref.insert(refEntry{n.at, n.seq, id})
}

func (hh *heapHarness) resched(id int, delay float64) {
	n := hh.nodes[id]
	n.at = hh.now + delay
	hh.seq++
	n.seq = hh.seq
	hh.h.fix(n.index)
	hh.ref.delete(id)
	hh.ref.insert(refEntry{n.at, n.seq, id})
}

func (hh *heapHarness) cancel(id int) {
	hh.h.remove(hh.nodes[id].index)
	hh.ref.delete(id)
}

// pop removes the minimum from both queues and fails unless they agree on
// (at, seq, id). It reports false once both are empty.
func (hh *heapHarness) pop(t *testing.T, step int) bool {
	if len(hh.ref) == 0 {
		if len(hh.h) != 0 {
			t.Fatalf("step %d: heap holds %d events, reference is empty", step, len(hh.h))
		}
		return false
	}
	want := hh.ref[0]
	hh.ref = hh.ref[1:]
	n := hh.h.pop()
	if n.at != want.at || n.seq != want.seq || n != hh.nodes[want.id] {
		t.Fatalf("step %d: heap popped (%v,%d), reference (%v,%d,id %d)",
			step, n.at, n.seq, want.at, want.seq, want.id)
	}
	if n.index != -1 {
		t.Fatalf("step %d: popped node keeps heap index %d", step, n.index)
	}
	hh.now = n.at
	return true
}

// TestHeapMatchesSortedOrder drives the event heap and a sorted-slice
// reference through identical seeded schedule/reschedule/cancel/pop
// workloads and asserts every pop agrees on (at, seq, id) and the lengths
// agree after every step and through the drain — the engine's entire
// observable ordering contract.
func TestHeapMatchesSortedOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0x1adde7, uint64(trial)))
			hh := &heapHarness{}
			// Mixed workload: bursts bias the pending count up and down,
			// so the heap is exercised both shallow and deep.
			const steps = 6000
			for s := 0; s < steps; s++ {
				switch op := rng.IntN(10); {
				case op < 5 || len(hh.ref) == 0: // schedule
					d := rng.Float64() * 100
					if rng.IntN(8) == 0 {
						d = 0 // same-instant events stress seq tie-breaks
					}
					if rng.IntN(16) == 0 {
						d *= 1e6 // far-future events
					}
					hh.sched(d)
				case op < 6: // reschedule a random pending event
					hh.resched(hh.ref[rng.IntN(len(hh.ref))].id, rng.Float64()*50)
				case op < 7: // cancel a random pending event
					hh.cancel(hh.ref[rng.IntN(len(hh.ref))].id)
				default:
					hh.pop(t, s)
				}
				if len(hh.h) != len(hh.ref) {
					t.Fatalf("step %d: len mismatch: heap %d reference %d", s, len(hh.h), len(hh.ref))
				}
			}
			for s := steps; hh.pop(t, s); s++ {
				if len(hh.h) != len(hh.ref) {
					t.Fatalf("drain step %d: len mismatch: heap %d reference %d", s, len(hh.h), len(hh.ref))
				}
			}
		})
	}
}
