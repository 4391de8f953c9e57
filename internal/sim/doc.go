// Package sim implements a deterministic discrete-event simulation (DES)
// engine used to model the heterogeneous CPU-GPU cluster on which the
// reproduced experiments run.
//
// Everything runs on one goroutine. The engine advances a virtual clock
// through an indexed event heap and calls each event's callback inline.
// A simulated activity — one task's pipeline, say — is an Activity: an
// engine-owned event node that runs its owner's Step, a step function over
// the owner's own program counter. The blocking primitives (Activity.Wait,
// Server.Acquire, Link.Transfer) never block the goroutine: each either
// completes in place and lets the step continue, or arranges the
// activity's wake-up and tells the step to return. Resuming an activity is
// therefore one indirect call, not a goroutine or coroutine switch.
// Simulations are fully deterministic: the same inputs always produce the
// same event order and the same virtual timestamps, regardless of
// GOMAXPROCS.
//
// The substrate is allocation-lean by design — this package is the hot path
// of every experiment sweep. Event nodes are pooled and recycled
// (generation-stamped handles keep Cancel safe across reuse); activities
// and links own their event nodes and reschedule them in place on the live
// heap (Engine.Reschedule / heap fix) instead of cancelling and re-pushing.
// Steady-state event traffic allocates nothing. Engine.Stats counts the
// dispatched events, fast-path waits, zero-delay ring hits and peak
// pending population of a run.
//
// Three primitives cover everything the cluster model needs:
//
//   - Engine: the virtual clock and event queue.
//   - Server: a capacity-constrained resource with a FIFO wait queue
//     (CPU cores, GPU devices); ServiceLine is its activity-free
//     capacity-1 variant (the scheduler master thread).
//   - Link: a fluid-flow, fair-shared bandwidth resource (PCIe buses, node
//     disks, NICs, the shared GPFS backend). Concurrent transfers share the
//     bandwidth equally; rates are recomputed whenever a transfer starts or
//     finishes, which models I/O contention at the granularity the paper's
//     analysis needs (SimGrid-style fluid model).
//
// Virtual time is measured in float64 seconds.
package sim
