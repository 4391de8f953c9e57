package sim

import (
	"fmt"
	"math"
)

// completionEpsilon is the residual byte count below which a flow is
// considered finished; it absorbs float64 drift from repeated rate
// recomputation.
const completionEpsilon = 1e-6

// Link is a fluid-flow bandwidth resource: all active transfers progress
// simultaneously, sharing the link's bandwidth equally. Whenever a transfer
// starts or finishes, the per-flow rate is recomputed and the next
// completion is rescheduled. This is the classic fluid ("TCP fair share")
// model used by network/storage simulators; it captures the contention
// effects the paper measures — an abundance of concurrent readers slows
// every reader down — without simulating individual blocks or packets.
//
// Link models PCIe buses, node-local disks, NICs and the shared GPFS
// backend. Latency, if non-zero, is a per-transfer startup delay paid before
// the flow joins the shared pipe (seek/RPC/DMA-setup time); it counts as
// link occupancy for busy-time accounting.
//
// The link owns a single completion event node, moved in place with
// heap.Fix on every membership change (no cancel-and-repush, no dead heap
// entries), and a free list of flow structs, so steady-state transfer
// traffic allocates nothing.
type Link struct {
	eng     *Engine
	name    string
	bw      float64 // bytes per second
	latency float64 // seconds per transfer

	active    []*flow // insertion order: deterministic completion handling
	freeFlows []*flow

	lastUpdate float64
	next       event // owned completion node, on-heap while target != nil
	target     *flow // earliest-finishing active flow; the completion drains it

	bytesMoved float64 // total bytes fully transferred
	transfers  uint64
	busyInt    float64 // ∫ [occupied] dt, occupancy = active flows + latency waits
	busySince  float64 // valid when occ > 0
	occ        int     // active flows + transfers paying their startup latency
}

type flow struct {
	remaining float64
	total     float64
	act       *Activity // woken when the flow drains
	link      *Link
	join      event // owned node: fires when the startup latency elapses
}

// NewLink creates a link with the given bandwidth (bytes/second) and
// per-transfer latency (seconds). Bandwidth must be positive and finite;
// latency must be non-negative.
func NewLink(e *Engine, name string, bandwidth, latency float64) *Link {
	if bandwidth <= 0 || math.IsInf(bandwidth, 0) || math.IsNaN(bandwidth) {
		panic(fmt.Sprintf("sim: link %q with invalid bandwidth %v", name, bandwidth))
	}
	if latency < 0 || math.IsNaN(latency) {
		panic(fmt.Sprintf("sim: link %q with invalid latency %v", name, latency))
	}
	l := &Link{eng: e, name: name, bw: bandwidth, latency: latency}
	// Pre-size for a few dozen concurrent flows: links on the simulated
	// hot path (the shared storage backend) see whole task waves at once,
	// and growing these under load is measurable allocator traffic.
	l.active = make([]*flow, 0, 32)
	l.freeFlows = make([]*flow, 0, 32)
	l.next.eng = e
	l.next.index = -1
	l.next.owned = true
	l.next.fire = callback(l.complete)
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Bandwidth returns the link's total bandwidth in bytes per second.
func (l *Link) Bandwidth() float64 { return l.bw }

// Latency returns the per-transfer startup latency in seconds.
func (l *Link) Latency() float64 { return l.latency }

// Active returns the number of flows currently sharing the link.
func (l *Link) Active() int { return len(l.active) }

// BytesMoved returns the total bytes completed over the link.
func (l *Link) BytesMoved() float64 { return l.bytesMoved }

// Transfers returns the number of completed transfers.
func (l *Link) Transfers() uint64 { return l.transfers }

// BusyTime returns the total virtual time during which the link was
// occupied: at least one flow active or at least one transfer paying its
// startup latency (a latency-only transfer is real occupancy too).
func (l *Link) BusyTime() float64 {
	b := l.busyInt
	if l.occ > 0 {
		b += l.eng.now - l.busySince
	}
	return b
}

// occupy/vacate maintain the busy-time integral over the link's occupancy
// count (active flows + latency waiters).
func (l *Link) occupy() {
	if l.occ == 0 {
		l.busySince = l.eng.now
	}
	l.occ++
}

func (l *Link) vacate() {
	l.occ--
	if l.occ == 0 {
		l.busyInt += l.eng.now - l.busySince
	}
}

// rate returns the current per-flow rate in bytes/second.
func (l *Link) rate() float64 { return l.bw / float64(len(l.active)) }

// advance applies progress to all active flows for the time elapsed since
// the last update.
func (l *Link) advance() {
	if len(l.active) > 0 {
		progressed := (l.eng.now - l.lastUpdate) * l.rate()
		for _, f := range l.active {
			f.remaining -= progressed
		}
	}
	l.lastUpdate = l.eng.now
}

// getFlow/putFlow recycle flow structs across transfers. A flow's join
// node and its callback are bound once at creation and reused for the
// struct's whole pooled lifetime.
func (l *Link) getFlow(bytes float64, a *Activity) *flow {
	if k := len(l.freeFlows); k > 0 {
		f := l.freeFlows[k-1]
		l.freeFlows[k-1] = nil
		l.freeFlows = l.freeFlows[:k-1]
		f.remaining, f.total, f.act = bytes, bytes, a
		return f
	}
	f := &flow{remaining: bytes, total: bytes, act: a, link: l}
	f.join.eng = l.eng
	f.join.index = -1
	f.join.owned = true
	f.join.fire = callback(f.joinLatent)
	return f
}

func (l *Link) putFlow(f *flow) {
	f.act = nil
	l.freeFlows = append(l.freeFlows, f)
}

// retarget points the pending completion event at flow f. All flows drain
// at the same rate, so f stays the earliest finisher until the next
// membership change. The rate is constant between membership changes, so at
// the event instant f's remainder is zero up to float64 drift; complete
// forces it to zero, which guarantees progress even when the delay is too
// small to advance the clock (a tiny residue absorbed by now+delay == now
// would otherwise livelock). The completion node gets a fresh sequence
// number, preserving the event order of the cancel-and-repush protocol this
// replaces.
func (l *Link) retarget(f *flow) {
	delay := f.remaining / l.rate()
	if delay < 0 {
		delay = 0
	}
	l.target = f
	l.eng.fixNode(&l.next, delay)
}

// complete fires when the target flow has drained; it removes the target
// plus any other flow within float64 drift of empty, wakes their activities
// in insertion order, and retargets the earliest remaining flow — found
// during the same removal sweep, not by a second scan.
func (l *Link) complete() {
	if l.target != nil {
		l.target.remaining = 0
	}
	l.target = nil
	l.advance()
	kept := l.active[:0]
	var min *flow
	for _, f := range l.active {
		if f.remaining <= completionEpsilon+1e-12*f.total {
			l.transfers++
			l.bytesMoved += f.total
			f.act.unpark()
			l.putFlow(f)
			l.vacate()
		} else {
			kept = append(kept, f)
			if min == nil || f.remaining < min.remaining {
				min = f
			}
		}
	}
	for i := len(kept); i < len(l.active); i++ {
		l.active[i] = nil
	}
	l.active = kept
	if min != nil {
		l.retarget(min)
	}
}

// joinNow adds a flow to the shared pipe at the current instant.
func (l *Link) joinNow(f *flow) {
	l.advance()
	l.occupy()
	l.active = append(l.active, f)
	// Incremental min tracking: the new flow preempts the current target
	// only if it finishes strictly earlier; either way the shared rate
	// changed, so the completion event moves.
	if l.target == nil || f.remaining < l.target.remaining {
		l.retarget(f)
	} else {
		l.retarget(l.target)
	}
}

// joinLatent fires when a flow's startup latency elapses: the latency
// occupancy converts into flow occupancy and the flow joins the pipe. A
// latency-only (zero-byte) flow is finished instead, and its activity's
// step runs inline — this event is the activity's wake-up.
func (f *flow) joinLatent() {
	l := f.link
	l.vacate()
	if f.total > 0 {
		l.joinNow(f)
		return
	}
	l.transfers++
	a := f.act
	l.putFlow(f)
	a.ev.fire.Step()
}

// Transfer moves bytes over the link on behalf of activity a. Concurrent
// transfers share the bandwidth equally. A zero-byte transfer pays only the
// latency. Transfer reports true when the transfer finished without
// blocking (zero bytes with no latency, or a latency-only transfer that
// took the Wait fast path); otherwise it reports false and the link wakes
// a at the instant its bytes have drained.
//
// On a link with startup latency the flow's join is a scheduled link event
// rather than an activity wake-up, so a transfer wakes its activity exactly
// once. The join event takes the schedule position the activity's own
// latency Wait would have had, and a latency-only transfer resumes the
// activity from that event directly, so event ordering is the same as a
// sequential wait-then-join.
func (l *Link) Transfer(a *Activity, bytes float64) bool {
	if bytes < 0 || math.IsNaN(bytes) {
		// Fatal invariant violation: formats once, then the run dies.
		//wfsimlint:allow hotalloc
		panic(fmt.Sprintf("sim: transfer of %v bytes on link %q", bytes, l.name))
	}
	if l.latency > 0 {
		l.occupy()
		if bytes == 0 && l.eng.fastWait(l.latency) {
			l.vacate()
			l.transfers++
			return true
		}
		l.eng.schedNode(&l.getFlow(bytes, a).join, l.latency)
		return false
	}
	if bytes == 0 {
		l.transfers++
		return true
	}
	l.joinNow(l.getFlow(bytes, a))
	return false
}
