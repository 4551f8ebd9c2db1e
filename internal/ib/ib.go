// Package ib models an InfiniBand fabric at the verbs level: devices (one
// HCA per host), reliable-connected queue pairs, completion queues, memory
// regions, two-sided SEND/RECV and one-sided RDMA READ/WRITE.
//
// Two properties of the model carry the paper's bottleneck analysis:
//
//  1. The intra-host loopback path (two co-resident processes talking
//     through the HCA) is served by a single per-host DMA resource with
//     higher base latency and lower bandwidth than shared memory — this is
//     why routing co-resident traffic through the HCA is slow.
//  2. Links are modeled as serially-reserved resources (cut-through), so
//     incast and bidirectional traffic contend realistically; the loopback
//     resource is shared by both directions, which reproduces the paper's
//     large bidirectional-bandwidth gap.
//
// Opening a device from a container requires the privileged runtime flag,
// mirroring `docker run --privileged` in the paper's setup.
package ib

import (
	"fmt"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/perf"
	"cmpi/internal/sim"
)

// Fabric is the switched InfiniBand network of one cluster: one port per
// host plus a non-blocking switch (full bisection at 16 nodes, as on the
// paper's testbed).
type Fabric struct {
	eng   *sim.Engine
	prm   *perf.Params
	ports []*port

	// topo is the switching hierarchy (topology.go); the zero value is the
	// legacy single crossbar. spines holds next-free times per spine switch,
	// indexed [stage][switch] — shared across hosts, and declarable as
	// dispatch resources via SpineHops so epoch-parallel worlds can merge
	// exactly the groups whose flows can meet at a spine.
	topo   Topology
	spines [][]sim.Time

	// devices lists every opened device, for aggregating per-device pools.
	// Appended only by OpenDevice, which runs during serialized job init.
	devices []*Device

	// inj, when non-nil, is the job's fault injector: link flap/degrade and
	// loopback stall windows defer or stretch transfers, and send-drop events
	// trigger RC retransmission. All queries happen at virtual-time points in
	// engine context, so faulty runs stay deterministic. Worlds with an
	// injector run fully serialized (the MPI layer pins every rank to the
	// Global resource), so the injector's budget state needs no sharding.
	inj      *fault.Injector
	retryCnt int      // RC retry_cnt: max retransmissions before QP error
	retryTO  sim.Time // base retransmission timeout; doubles per retry
	stats    FaultStats

	// trace, when installed, observes transport fault events (successful
	// retransmission bursts and QP breaks) as they are scheduled. Fault
	// events only occur in injected worlds, whose every epoch is one group,
	// so the callback fires in deterministic dispatch order.
	trace func(TraceEvent)
}

// PoolCounters reports the fabric's aggregate buffer-pool hit statistics
// (summed over per-device pools).
func (f *Fabric) PoolCounters() core.PoolCounters {
	var c core.PoolCounters
	for _, d := range f.devices {
		c.Add(d.pool.Counters())
	}
	return c
}

// DrainPools hands the free wire buffers of every device and queue pair to
// dr, in device and QP creation order. For the end of a job: nothing may
// post or poll afterwards.
func (f *Fabric) DrainPools(dr *core.Drain) {
	for _, d := range f.devices {
		dr.Home(&d.pool)
		for _, q := range d.qps {
			dr.Dir(&q.wire)
		}
	}
}

// FaultStats tallies transport-level fault handling on the fabric.
type FaultStats struct {
	// Retransmits counts dropped transmissions that were retried.
	Retransmits uint64
	// RetryExhausted counts operations that ran out of retries and completed
	// with WCRetryExceeded, breaking their queue pair.
	RetryExhausted uint64
}

// Default RC retry policy, used when SetFaults is given non-positive knobs:
// 7 retries (the verbs maximum MVAPICH2 configures) over a 16.384us base
// timeout (the 4.096us * 2^2 local-ACK-timeout encoding).
const (
	defaultRetryCount   = 7
	defaultRetryTimeout = sim.Time(16384) * sim.Nanosecond
)

// SetFaults arms the fabric with a fault injector and the RC retry policy
// (retryCnt retransmissions over an exponentially backed-off timeout starting
// at retryTO). Non-positive knobs select the transport defaults. A nil
// injector leaves the fabric fault-free.
func (f *Fabric) SetFaults(inj *fault.Injector, retryCnt int, retryTO sim.Time) {
	f.inj = inj
	f.retryCnt = retryCnt
	f.retryTO = retryTO
	if f.retryCnt <= 0 {
		f.retryCnt = defaultRetryCount
	}
	if f.retryTO <= 0 {
		f.retryTO = defaultRetryTimeout
	}
}

// FaultStats returns a snapshot of the fabric's fault-handling counters.
func (f *Fabric) FaultStats() FaultStats { return f.stats }

// TraceKind classifies one fabric trace event.
type TraceKind uint8

const (
	// TraceRetransmit reports a transmission that succeeded after Retries
	// retransmissions.
	TraceRetransmit TraceKind = iota
	// TraceQPBreak reports an RC pair broken after retry exhaustion.
	TraceQPBreak
)

// TraceEvent is one transport fault event handed to the trace observer.
type TraceEvent struct {
	// T is the virtual time the event takes effect.
	T sim.Time
	// Kind distinguishes retransmission from pair breakage.
	Kind TraceKind
	// Host is the posting host's index.
	Host int
	// Retries is the number of retransmissions spent.
	Retries int
}

// SetTrace installs (or, with nil, removes) the fabric's fault-event
// observer.
func (f *Fabric) SetTrace(fn func(TraceEvent)) { f.trace = fn }

// port is the per-host HCA attachment point with its link resources.
type port struct {
	up   sim.Time // uplink next-free
	down sim.Time // downlink next-free
	loop sim.Time // loopback DMA engine next-free (shared by both directions)
}

// NewFabric builds the fabric for a cluster. Hosts without HCAs get no
// port; opening a device on them fails.
func NewFabric(eng *sim.Engine, prm *perf.Params, c *cluster.Cluster) *Fabric {
	f := &Fabric{eng: eng, prm: prm}
	for i := 0; i < c.Spec.Hosts; i++ {
		if c.Spec.HCAsPerHost > 0 {
			f.ports = append(f.ports, &port{})
		} else {
			f.ports = append(f.ports, nil)
		}
	}
	return f
}

// Device is an opened HCA context bound to one process's environment.
type Device struct {
	fabric *Fabric
	// Env is the container (or native env) that opened the device.
	Env *cluster.Container

	// res holds the identity resources declared by Tag (owning rank, host);
	// zero — i.e. sim.Global — until tagged.
	res [2]sim.Res

	// pool is the home pool of the wire buffers this device's QPs send and
	// absorb (see QP.wire). Per-device rather than per-fabric so that causally
	// independent epoch groups never share a free list.
	pool core.BufPool

	// devID is fixed at OpenDevice and qpnNext counts QPs created here, so
	// CreateQP touches no fabric-shared state.
	devID   int
	qpnNext int
	// qps lists the QPs created here, for DrainPools.
	qps []*QP

	// evtFree recycles the deferred-delivery records behind PostSend and
	// PostWrite, making their two scheduled events allocation-free in steady
	// state.
	evtFree []*sendEvt
}

// Tag declares the device's identity resources for parallel dispatch: the
// owning rank's resource and its host's resource, in that order. Deferred
// fabric events (message arrival, completion delivery) are tagged with both
// endpoints' identities so the epoch scheduler can run independent RC pairs
// concurrently. Untagged devices leave their events on sim.Global.
func (d *Device) Tag(rank, host sim.Res) { d.res[0], d.res[1] = rank, host }

// ErrNoDeviceAccess is returned when a non-privileged container opens the HCA.
var ErrNoDeviceAccess = fmt.Errorf("ib: device not visible (container lacks --privileged)")

// OpenDevice opens the host HCA from the given environment.
func (f *Fabric) OpenDevice(env *cluster.Container) (*Device, error) {
	if f.ports[env.Host.Index] == nil {
		return nil, fmt.Errorf("ib: host %s has no HCA", env.Host.Name)
	}
	if !env.Privileged {
		return nil, ErrNoDeviceAccess
	}
	d := &Device{fabric: f, Env: env, devID: len(f.devices)}
	f.devices = append(f.devices, d)
	return d, nil
}

// MR is a registered (pinned) memory region.
type MR struct {
	// Buf is the registered buffer; RDMA operations address offsets in it.
	Buf []byte
}

// RegisterMR pins buf, charging the registration cost to the calling proc.
func (d *Device) RegisterMR(p *sim.Proc, buf []byte) *MR {
	p.Advance(d.fabric.prm.IBRegister(len(buf)))
	return &MR{Buf: buf}
}

// Opcode identifies the operation a CQE completes.
type Opcode int

// Completion opcodes.
const (
	OpSend     Opcode = iota // local SEND completed (buffer reusable)
	OpRecv                   // message landed in a posted receive buffer
	OpWrite                  // local RDMA WRITE completed (remotely visible)
	OpWriteImm               // remote CQE for RDMA WRITE WITH IMM
	OpRead                   // local RDMA READ completed (data in local buffer)
)

// String names the opcode for diagnostics.
func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpWrite:
		return "WRITE"
	case OpWriteImm:
		return "WRITE_IMM"
	case OpRead:
		return "READ"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// WCStatus is the completion status of a CQE, mirroring ibv_wc_status.
type WCStatus int

// Completion statuses.
const (
	// WCSuccess is a normal completion.
	WCSuccess WCStatus = iota
	// WCRetryExceeded reports that the operation exhausted the RC retry
	// budget (IBV_WC_RETRY_EXC_ERR); the QP has transitioned to the error
	// state.
	WCRetryExceeded
	// WCFlushed reports a work request flushed because it was posted to a QP
	// already in the error state (IBV_WC_WR_FLUSH_ERR).
	WCFlushed
	// WCRemoteAbort reports that the remote end of the QP broke the
	// connection (the peer exhausted its retries); delivered on the receive
	// CQ so the passive side observes the failure instead of hanging.
	WCRemoteAbort
)

// String names the status for diagnostics.
func (s WCStatus) String() string {
	switch s {
	case WCSuccess:
		return "success"
	case WCRetryExceeded:
		return "retry-exceeded"
	case WCFlushed:
		return "flushed"
	case WCRemoteAbort:
		return "remote-abort"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// CQE is one completion entry.
type CQE struct {
	// QP is the queue pair the completion belongs to.
	QP *QP
	// WRID echoes the work-request ID given at post time (0 for remote
	// WRITE_IMM completions).
	WRID uint64
	// Op is the completed operation.
	Op Opcode
	// Status reports success or the failure class. On error, Bytes/Imm/Buf
	// are undefined.
	Status WCStatus
	// Bytes is the payload size.
	Bytes int
	// Imm carries the immediate value for OpWriteImm.
	Imm uint64
	// Buf holds the delivered payload for auto-receive QPs (SRQ-style
	// delivery into a runtime-managed bounce buffer); nil otherwise.
	Buf []byte
	// Retries counts the retransmissions the operation needed (nonzero only
	// under fault injection).
	Retries int
}

// CQ is a completion queue. One CQ may serve many QPs (the MPI runtime uses
// a single CQ per rank). SetWaiter registers the simulated process to wake
// when a completion arrives.
type CQ struct {
	dev     *Device
	entries []CQE
	spare   []CQE // retired batch, reused as the next entries backing
	waiter  *sim.Proc
}

// CreateCQ allocates a completion queue on the device.
func (d *Device) CreateCQ() *CQ {
	return &CQ{dev: d}
}

// SetWaiter registers p to be unparked whenever a CQE is pushed.
func (q *CQ) SetWaiter(p *sim.Proc) { q.waiter = p }

// push appends a completion at virtual time t and wakes the waiter.
func (q *CQ) push(t sim.Time, e CQE) {
	q.entries = append(q.entries, e)
	if q.waiter != nil {
		q.waiter.UnparkAt(t)
	}
}

// Poll drains and returns all available completions, charging the poll
// overhead only when completions were found (an empty poll models as free,
// matching the spin-wait pattern of MPI progress engines where the cost of
// idle polling is already covered by the blocked wait).
//
// The returned slice is valid only until the next Poll on this CQ: the two
// batch buffers are swapped rather than reallocated, so a caller that drains
// each batch before polling again (the progress-engine pattern) never
// allocates here.
func (q *CQ) Poll(p *sim.Proc) []CQE {
	if len(q.entries) == 0 {
		return nil
	}
	p.Advance(q.dev.fabric.prm.IBPollOverhead)
	out := q.entries
	q.entries = q.spare[:0]
	q.spare = out
	return out
}

// recvWQE is a posted receive buffer.
type recvWQE struct {
	wrid uint64
	buf  []byte
}

// inbound is a message that arrived before a receive was posted. Verbs
// would RNR-NAK here; the model queues instead, which is equivalent under
// the MPI runtime's credit-free pre-posting discipline and keeps retry
// logic out of the substrate.
type inbound struct {
	payload []byte
	imm     uint64
	op      Opcode
	at      sim.Time
}

// QP is one side of a reliable-connected queue pair.
type QP struct {
	dev    *Device
	qpn    int
	peer   *QP
	sendCQ *CQ
	recvCQ *CQ

	recvQ []recvWQE
	inQ   []inbound

	// autoRecv delivers inbound messages into freshly allocated bounce
	// buffers without posted receives, modeling an SRQ with a shared
	// buffer pool — what lets an MPI runtime serve O(ranks²) QPs without
	// O(ranks²) pre-posted buffers.
	autoRecv bool

	// broken marks the QP in the error state (retry exhaustion on either
	// end). Work posted afterwards completes immediately with WCFlushed.
	broken bool

	// hw is the high-water mark of fabric activity this QP posted: the
	// latest virtual time of any deferred event it scheduled (arrivals,
	// transmit ends, acks) — which also bounds its port-bandwidth bookings,
	// since every booking ends at or before the event that announces it.
	// Written only while the owning epoch group runs the poster; read at
	// epoch formation (scheduler context) via Watermark, so the layer above
	// can prove a pair's shared port state is quiescent before a footprint
	// drops it.
	hw sim.Time

	// wire holds wire buffers of messages this QP sent, from the far end
	// absorbing one to the next send (core.DirPool: the far end keeps what
	// replaces a buffer of its own, so only lopsided traffic lands here). A
	// buffer leaves through WireBuf, crosses the fabric owned by the post, and
	// is retired by Recycle on the peer QP. The poster touches the list from a
	// group owning both endpoints' resources, fabric events are tagged with
	// both, and the consumer runs in its own context, which the poster's group
	// must own to post at all — never two groups at once.
	wire core.DirPool
}

// WireBuf returns a length-n wire buffer for a message this QP will send, for
// the caller to fill and hand to PostSendOwned. Contents are undefined.
func (q *QP) WireBuf(n int) []byte { return q.wire.Get(&q.dev.pool, n) }

// Recycle retires a bounce buffer received via CQE.Buf on this QP: this
// device keeps it if it replaces one of its own now travelling, otherwise it
// goes back to the sending QP. Call it once the payload has been copied out;
// the CQE must not be touched afterwards. Recycling nil or a foreign buffer
// is a no-op.
func (q *QP) Recycle(buf []byte) { q.peer.wire.Return(&q.dev.pool, buf) }

// unpost takes back a wire buffer whose post failed before it left.
func (q *QP) unpost(wire []byte) { q.wire.Return(&q.dev.pool, wire) }

// bump advances the QP's activity high-water mark.
func (q *QP) bump(t sim.Time) {
	if t > q.hw {
		q.hw = t
	}
}

// Watermark reports the latest virtual time of any deferred fabric event
// this QP scheduled. When both ends' watermarks are strictly before the
// current epoch floor, every event the pair ever put on the fabric has been
// dispatched and all its port-bandwidth bookings lie in the simulated past.
func (q *QP) Watermark() sim.Time { return q.hw }

// Peer returns the remote end of the RC pair (nil before Connect).
func (q *QP) Peer() *QP { return q.peer }

// Broken reports whether the QP is in the error state.
func (q *QP) Broken() bool { return q.broken }

// EnableAutoRecv switches the QP to SRQ-style delivery: inbound SENDs
// complete with CQE.Buf pointing at a runtime-managed bounce buffer, and
// RDMA WRITE WITH IMM completes without consuming a posted receive.
func (q *QP) EnableAutoRecv() { q.autoRecv = true }

// QPN returns the queue pair number (unique per fabric).
func (q *QP) QPN() int { return q.qpn }

// CreateQP allocates a queue pair using the given CQs for send and receive
// completions (they may be the same CQ). QPNs are minted device-locally
// (device index in the high bits) so concurrent epoch groups never contend
// on a shared counter.
func (d *Device) CreateQP(sendCQ, recvCQ *CQ) *QP {
	d.qpnNext++
	q := &QP{dev: d, qpn: d.devID<<20 | d.qpnNext, sendCQ: sendCQ, recvCQ: recvCQ}
	d.qps = append(d.qps, q)
	return q
}

// Connect transitions a<->b into RTS as an RC pair. Both must be on the
// same fabric.
func Connect(a, b *QP) error {
	if a.dev.fabric != b.dev.fabric {
		return fmt.Errorf("ib: cannot connect QPs on different fabrics")
	}
	if a.peer != nil || b.peer != nil {
		return fmt.Errorf("ib: QP already connected")
	}
	a.peer, b.peer = b, a
	return nil
}

// loopback reports whether the pair's endpoints share a host.
func (q *QP) loopback() bool {
	return q.dev.Env.Host == q.peer.dev.Env.Host
}

// resAll collects the resources a deferred event for this RC pair touches:
// both endpoints' (rank, host) identity resources. All sim.Global when the
// layer above never tagged the devices.
func (q *QP) resAll() (r [4]sim.Res) {
	r[0], r[1] = q.dev.res[0], q.dev.res[1]
	if q.peer != nil {
		r[2], r[3] = q.peer.dev.res[0], q.peer.dev.res[1]
	}
	return r
}

// sendEvt is a pooled deferred-event record for PostSend, PostWrite and
// PostRead: one instance backs the arrival at the peer, another the local
// completion (a READ uses one for both, request then response). Pooling them
// (plus the static callbacks below) removes the two per-message closure
// allocations from the eager, rendezvous and one-sided hot paths.
type sendEvt struct {
	q       *QP
	t       sim.Time
	data    []byte // SEND: the wire buffer, owned; WRITE: the caller's source; READ: its destination
	n       int
	imm     uint64
	wrid    uint64
	retries int
	op      Opcode // local completion: OpSend, OpWrite or OpRead
	// RDMA WRITE target, RDMA READ source.
	mr      *MR
	off     int
	withImm bool
}

// getEvt takes a record from the device free list.
func (d *Device) getEvt() *sendEvt {
	if n := len(d.evtFree); n > 0 {
		ev := d.evtFree[n-1]
		d.evtFree = d.evtFree[:n-1]
		return ev
	}
	return &sendEvt{}
}

// putEvt clears and returns a record to the free list of the device that
// minted it. Callers run in a group owning the sender's resources, so the
// free list never crosses an epoch-group boundary.
func (d *Device) putEvt(ev *sendEvt) {
	*ev = sendEvt{}
	d.evtFree = append(d.evtFree, ev)
}

// sendArrival lands a PostSend at the peer: SRQ-style bounce delivery, a
// posted receive, or the early-arrival queue.
func sendArrival(a any) {
	ev := a.(*sendEvt)
	q, peer := ev.q, ev.q.peer
	switch {
	case peer.autoRecv:
		// Ownership of the bounce buffer transfers to the consumer, who
		// returns it with QP.Recycle once the message is absorbed.
		peer.recvCQ.push(ev.t, CQE{QP: peer, Op: OpRecv, Bytes: ev.n, Imm: ev.imm, Buf: ev.data})
	case len(peer.recvQ) > 0:
		wqe := peer.recvQ[0]
		peer.recvQ = peer.recvQ[1:]
		peer.deliver(ev.t, wqe.wrid, wqe.buf, ev.data, OpRecv, ev.imm)
		peer.Recycle(ev.data)
	default:
		peer.inQ = append(peer.inQ, inbound{payload: ev.data, imm: ev.imm, op: OpRecv, at: ev.t})
	}
	q.dev.putEvt(ev)
}

// writeArrival lands a PostWrite: the one copy, source to remote region, and
// the peer's OpWriteImm notification if requested.
func writeArrival(a any) {
	ev := a.(*sendEvt)
	q, peer := ev.q, ev.q.peer
	copy(ev.mr.Buf[ev.off:], ev.data)
	if ev.withImm {
		switch {
		case peer.autoRecv:
			peer.recvCQ.push(ev.t, CQE{QP: peer, Op: OpWriteImm, Bytes: ev.n, Imm: ev.imm})
		case len(peer.recvQ) > 0:
			wqe := peer.recvQ[0]
			peer.recvQ = peer.recvQ[1:]
			peer.recvCQ.push(ev.t, CQE{QP: peer, WRID: wqe.wrid, Op: OpWriteImm, Bytes: ev.n, Imm: ev.imm})
		default:
			peer.inQ = append(peer.inQ, inbound{payload: nil, imm: ev.imm, op: OpWriteImm, at: ev.t})
		}
	}
	q.dev.putEvt(ev)
}

// readArrival lands a PostRead's request at the remote HCA: the one copy,
// remote region to destination, and the response hop, whose arrival is the
// poster's completion.
func readArrival(a any) {
	ev := a.(*sendEvt)
	q := ev.q
	copy(ev.data, ev.mr.Buf[ev.off:ev.off+ev.n])
	f := q.dev.fabric
	_, respArrive := f.transitTimes(q.peer.dev.Env.Host.Index, q.dev.Env.Host.Index, ev.n+hdrBytes, ev.t)
	q.bump(respArrive)
	ev.t, ev.data, ev.mr = respArrive, nil, nil
	r := q.resAll()
	f.eng.AtArg(respArrive, localDone, ev, r[0], r[1], r[2], r[3])
}

// localDone delivers the poster's own completion: OpSend once the wire is
// released, OpWrite once the remote ack is back, OpRead once the response is.
func localDone(a any) {
	ev := a.(*sendEvt)
	ev.q.sendCQ.push(ev.t, CQE{QP: ev.q, WRID: ev.wrid, Op: ev.op, Bytes: ev.n, Retries: ev.retries})
	ev.q.dev.putEvt(ev)
}

// transitTimes books link resources for an n-byte transfer posted at t0 and
// returns (txEnd, arrival): when the sender-side resource is released and
// when the last byte lands at the receiver. Fault windows shape the booking:
// LinkFlap defers the transfer past the port-down window, LoopStall defers
// loopback DMA, and LinkDegrade stretches the per-operation occupancy.
func (f *Fabric) transitTimes(src, dst int, n int, t0 sim.Time) (txEnd, arrival sim.Time) {
	prm := f.prm
	if src == dst {
		pt := f.ports[src]
		occ := prm.IBOpOccupancy(n, true)
		start := maxT(pt.loop, t0)
		start, _ = f.inj.LoopReady(src, start)
		occ = f.inj.OccScale(src, start, occ)
		pt.loop = start + occ
		return pt.loop, start + occ + prm.IBWireLatencyLoop
	}
	occ := prm.IBOpOccupancy(n, false)
	up, down := f.ports[src], f.ports[dst]
	startTx := maxT(up.up, t0)
	startTx, _ = f.inj.LinkReady(src, startTx)
	upOcc := f.inj.OccScale(src, startTx, occ)
	up.up = startTx + upOcc
	// Inter-rack transfers climb the spine stages (per-switch contention plus
	// per-hop latency); intra-rack and trivial topologies pass through
	// unchanged (ready = startTx, extra = 0).
	ready, extra := f.spinePath(src, dst, startTx, upOcc)
	rxStart := maxT(ready+prm.IBWireLatencyInter+extra, down.down)
	rxStart, _ = f.inj.LinkReady(dst, rxStart)
	// The receiver cannot drain faster than a degraded sender trickles bytes
	// out, so the downlink is occupied for the slower of the two rates.
	down.down = rxStart + maxT(upOcc, f.inj.OccScale(dst, rxStart, occ))
	return up.up, down.down
}

// retrySchedule consumes send-drop events for a transmission posted from
// host at t0 and returns the effective transmit time after retransmissions,
// how many retries were spent, and ok=false when the retry budget is
// exhausted (in which case the returned time is when the failure is
// detected). Each retry doubles the timeout (RC exponential backoff).
func (f *Fabric) retrySchedule(host int, t0 sim.Time) (at sim.Time, retries int, ok bool) {
	if f.inj == nil {
		return t0, 0, true
	}
	t := t0
	timeout := f.retryTO
	for f.inj.ConsumeSendDrop(host, t) {
		retries++
		t += timeout
		timeout *= 2
		if retries > f.retryCnt {
			f.stats.RetryExhausted++
			return t, retries, false
		}
		f.stats.Retransmits++
	}
	if retries > 0 && f.trace != nil {
		f.trace(TraceEvent{T: t, Kind: TraceRetransmit, Host: host, Retries: retries})
	}
	return t, retries, true
}

// breakPair transitions both ends of q's RC pair into the error state at
// virtual time at and delivers the error completions: WCRetryExceeded on the
// poster's send CQ (echoing wrid/op) and WCRemoteAbort on the peer's receive
// CQ, so neither side can hang waiting on a connection that no longer exists.
func (f *Fabric) breakPair(at sim.Time, q *QP, wrid uint64, op Opcode, retries int) {
	peer := q.peer
	q.broken, peer.broken = true, true
	q.bump(at)
	if f.trace != nil {
		f.trace(TraceEvent{T: at, Kind: TraceQPBreak, Host: q.dev.Env.Host.Index, Retries: retries})
	}
	r := q.resAll()
	f.eng.AtRes(at, func() {
		q.sendCQ.push(at, CQE{QP: q, WRID: wrid, Op: op, Status: WCRetryExceeded, Retries: retries})
		peer.recvCQ.push(at, CQE{QP: peer, Op: OpRecv, Status: WCRemoteAbort})
	}, r[0], r[1], r[2], r[3])
}

// flush completes a work request posted to a broken QP with WCFlushed on the
// send CQ, charging only the post overhead.
func (q *QP) flush(p *sim.Proc, wrid uint64, op Opcode) {
	p.Advance(q.dev.fabric.prm.IBPostOverhead)
	t := p.Now()
	q.bump(t)
	sq := q.sendCQ
	q.dev.fabric.eng.AtRes(t, func() {
		sq.push(t, CQE{QP: q, WRID: wrid, Op: op, Status: WCFlushed})
	}, q.dev.res[0], q.dev.res[1])
}

func maxT(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// PostRecv posts a receive buffer. If a message already arrived (see
// inbound), it is delivered immediately.
func (q *QP) PostRecv(p *sim.Proc, wrid uint64, buf []byte) {
	if len(q.inQ) > 0 {
		msg := q.inQ[0]
		q.inQ = q.inQ[1:]
		q.deliver(maxT(p.Now(), msg.at), wrid, buf, msg.payload, msg.op, msg.imm)
		q.Recycle(msg.payload) // copied into buf; the sender's wire buffer is free
		return
	}
	q.recvQ = append(q.recvQ, recvWQE{wrid: wrid, buf: buf})
}

// deliver lands payload into a posted buffer and completes the receive.
func (q *QP) deliver(t sim.Time, wrid uint64, buf, payload []byte, op Opcode, imm uint64) {
	if len(payload) > len(buf) {
		// Verbs would complete with IBV_WC_LOC_LEN_ERR; the runtime never
		// does this, so treat it as a substrate bug.
		panic(fmt.Sprintf("ib: %d-byte message overflows %d-byte posted recv", len(payload), len(buf)))
	}
	copy(buf, payload)
	q.recvCQ.push(t, CQE{QP: q, WRID: wrid, Op: op, Bytes: len(payload), Imm: imm})
}

// PostSend transmits payload two-sided: it consumes a posted receive at the
// peer and generates OpRecv there and OpSend locally. The payload is copied
// into a wire buffer at post time, so the caller may reuse it at once. imm
// rides along and is visible in the peer's CQE.
func (q *QP) PostSend(p *sim.Proc, wrid uint64, payload []byte, imm uint64) {
	wire := q.WireBuf(len(payload))
	copy(wire, payload)
	q.PostSendOwned(p, wrid, wire, imm)
}

// PostSendOwned is PostSend without the copy: wire, typically a WireBuf the
// caller encoded its message into, belongs to the post from here on. It
// travels to the peer as the delivered payload and is retired there once
// absorbed — or here, at once, when the post fails (broken QP, retry budget
// exhausted).
func (q *QP) PostSendOwned(p *sim.Proc, wrid uint64, wire []byte, imm uint64) {
	if q.peer == nil {
		p.Fatalf("ib: PostSend on unconnected QP %d", q.qpn)
	}
	if q.broken {
		q.unpost(wire)
		q.flush(p, wrid, OpSend)
		return
	}
	prm := q.dev.fabric.prm
	p.Advance(prm.IBPostOverhead)
	t0 := p.Now()
	f := q.dev.fabric
	t0, retries, ok := f.retrySchedule(q.dev.Env.Host.Index, t0)
	if !ok {
		q.unpost(wire)
		f.breakPair(t0, q, wrid, OpSend, retries)
		return
	}
	n := len(wire)
	txEnd, arrival := f.transitTimes(q.dev.Env.Host.Index, q.peer.dev.Env.Host.Index, n+hdrBytes, t0)
	q.bump(txEnd)
	q.bump(arrival)
	r := q.resAll()
	ae := q.dev.getEvt()
	ae.q, ae.t, ae.data, ae.n, ae.imm = q, arrival, wire, n, imm
	f.eng.AtArg(arrival, sendArrival, ae, r[0], r[1], r[2], r[3])
	te := q.dev.getEvt()
	te.q, te.t, te.n, te.wrid, te.retries, te.op = q, txEnd, n, wrid, retries, OpSend
	f.eng.AtArg(txEnd, localDone, te, r[0], r[1], r[2], r[3])
}

// hdrBytes models the transport header per message on the wire.
const hdrBytes = 48

// PostWrite RDMA-writes src into remote[off:] one-sidedly: the HCA moves the
// bytes straight from the registered source to the remote region when the
// transfer arrives — one copy, no staging — so src must stay untouched until
// the local OpWrite CQE, which is delivered after the remote ack returns. If
// withImm, the peer consumes a posted receive and gets an OpWriteImm CQE
// carrying imm; otherwise the peer CPU is not involved at all.
func (q *QP) PostWrite(p *sim.Proc, wrid uint64, src []byte, remote *MR, off int, withImm bool, imm uint64) {
	if q.peer == nil {
		p.Fatalf("ib: PostWrite on unconnected QP %d", q.qpn)
	}
	if off < 0 || off+len(src) > len(remote.Buf) {
		p.Fatalf("ib: RDMA WRITE of %d bytes at offset %d overflows %d-byte MR", len(src), off, len(remote.Buf))
	}
	if q.broken {
		q.flush(p, wrid, OpWrite)
		return
	}
	prm := q.dev.fabric.prm
	p.Advance(prm.IBPostOverhead)
	t0 := p.Now()
	f := q.dev.fabric
	t0, retries, ok := f.retrySchedule(q.dev.Env.Host.Index, t0)
	if !ok {
		f.breakPair(t0, q, wrid, OpWrite, retries)
		return
	}
	n := len(src)
	loop := q.loopback()
	_, arrival := f.transitTimes(q.dev.Env.Host.Index, q.peer.dev.Env.Host.Index, n+hdrBytes, t0)
	r := q.resAll()
	ae := q.dev.getEvt()
	ae.q, ae.t, ae.data, ae.n, ae.imm = q, arrival, src, n, imm
	ae.mr, ae.off, ae.withImm = remote, off, withImm
	f.eng.AtArg(arrival, writeArrival, ae, r[0], r[1], r[2], r[3])
	// Local completion after the ack returns (one extra wire hop).
	ack := arrival + prm.IBWireLatency(loop)
	q.bump(ack)
	te := q.dev.getEvt()
	te.q, te.t, te.n, te.wrid, te.retries, te.op = q, ack, n, wrid, retries, OpWrite
	f.eng.AtArg(ack, localDone, te, r[0], r[1], r[2], r[3])
}

// PostRead RDMA-reads len(dst) bytes from remote[off:] into dst. The remote
// CPU is not involved; the bytes are those present when the request reaches
// the remote HCA, moved into dst in one copy at that instant (dst is
// undefined until the local OpRead completion anyway).
func (q *QP) PostRead(p *sim.Proc, wrid uint64, dst []byte, remote *MR, off int) {
	if q.peer == nil {
		p.Fatalf("ib: PostRead on unconnected QP %d", q.qpn)
	}
	if off < 0 || off+len(dst) > len(remote.Buf) {
		p.Fatalf("ib: RDMA READ of %d bytes at offset %d overflows %d-byte MR", len(dst), off, len(remote.Buf))
	}
	if q.broken {
		q.flush(p, wrid, OpRead)
		return
	}
	// Drops are not injected on the READ request hop: it is header-only and
	// the MPI runtime drives bulk data through SEND/WRITE, so retry handling
	// there covers the interesting paths.
	prm := q.dev.fabric.prm
	p.Advance(prm.IBPostOverhead)
	t0 := p.Now()
	f := q.dev.fabric
	// Request hop: header-only message to the remote HCA. The response hop,
	// remote -> local, is booked when the request gets there (readArrival).
	_, reqArrive := f.transitTimes(q.dev.Env.Host.Index, q.peer.dev.Env.Host.Index, hdrBytes, t0)
	q.bump(reqArrive)
	r := q.resAll()
	ev := q.dev.getEvt()
	ev.q, ev.t, ev.data, ev.n, ev.wrid, ev.op = q, reqArrive, dst, len(dst), wrid, OpRead
	ev.mr, ev.off = remote, off
	f.eng.AtArg(reqArrive, readArrival, ev, r[0], r[1], r[2], r[3])
}
