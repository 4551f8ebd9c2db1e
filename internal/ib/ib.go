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
	"cmpi/internal/trace"
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
	// indexed [stage][switch], shared across hosts.
	topo   Topology
	spines [][]sim.Time

	// devices lists every opened device, for ObjCounters, DrainPools and
	// Recycle. Appended only by OpenDeviceWith, which runs during serialized
	// job init.
	devices []*Device
	// recycled is what the devices Recycle handed on had counted (see
	// ObjCounters).
	recycled core.PoolCounters

	// inj, when non-nil, is the job's fault injector: link flap/degrade and
	// loopback stall windows defer or stretch transfers, and send-drop events
	// trigger RC retransmission. All queries happen at virtual-time points in
	// engine context, so faulty runs stay deterministic.
	inj      *fault.Injector
	retryCnt int      // RC retry_cnt: max retransmissions before QP error
	retryTO  sim.Time // base retransmission timeout; doubles per retry

	// rec, when set, records transport fault events (successful
	// retransmission bursts and QP breaks) as they are scheduled, in
	// dispatch order.
	rec *trace.Recorder

	// mrs recycles the handles DeregisterMR retires for the next RegisterMR
	// on any device of the fabric. It lives here, once per world, rather
	// than on every device: one goroutine dispatches a world, so its devices
	// can share it unlocked.
	mrs core.FreeList[MR]
}

// ObjCounters reports where the devices' event records and the fabric's MR
// handles came from, by core.FreeList's law: Gets = Hits + Depot + what was
// allocated.
func (f *Fabric) ObjCounters() core.PoolCounters {
	c := f.mrs.Counters()
	c.Add(f.recycled)
	for _, d := range f.devices {
		c.Add(d.evts.Counters())
	}
	return c
}

// DrainPools hands dr the free wire buffers of every queue pair, then each
// device's free event records, in device and QP creation order, then the
// free MR handles. The devices' pools are their owners' to
// drain. For the end of a job: nothing may post or poll afterwards.
func (f *Fabric) DrainPools(dr *core.Drain) {
	for _, d := range f.devices {
		for q := d.firstQP; q != nil; q = q.next {
			if w := q.wire(); w != nil {
				dr.Dir(w)
			}
		}
		d.evts.Drain(dr)
	}
	f.mrs.Drain(dr)
}

// Recycle hands the fabric's devices, with their CQs, QPs and QP extensions,
// zeroed, and the array that listed them, to the depot, for the next
// fabric's OpenDeviceWith, CreateCQ and CreateQP; ObjCounters keeps what they
// counted. A device keeps its event list's array, a CQ its two batches and a
// QP extension its queues' arrays, cleared, so that none regrows in the next
// job. For the end of a job that ended cleanly, after DrainPools: none of
// them may be used again.
func (f *Fabric) Recycle(dr *core.Drain) {
	// Last device first, so that the next fabric's device i, opened by the
	// same process as this one's, takes it back (the depot hands out its
	// newest first).
	for i := len(f.devices) - 1; i >= 0; i-- {
		d := f.devices[i]
		f.recycled.Add(d.evts.Counters())
		for q := d.firstQP; q != nil; {
			next := q.next
			if x := q.aux; x != nil {
				*x = qpAux{wire: x.wire, recvQ: core.Cleared(x.recvQ), inQ: core.Cleared(x.inQ)}
				auxKind.Give(dr, x)
			}
			*q = QP{}
			qpKind.Give(dr, q)
			q = next
		}
		for _, q := range d.cqs {
			*q = CQ{entries: core.Cleared(q.entries), spare: core.Cleared(q.spare)}
			cqKind.Give(dr, q)
		}
		*d = Device{cqs: core.Cleared(d.cqs), evts: d.evts.Kept()}
		deviceKind.Give(dr, d)
	}
	if cap(f.devices) > 0 {
		devicesKind.Give(dr, core.Cleared(f.devices))
	}
	f.devices = nil
}

// The depot's lists of the fabric state a clean job hands on (Recycle) and
// the next one's constructors take.
var (
	deviceKind  = core.NewKind[*Device]()
	devicesKind = core.NewKind[[]*Device]()
	cqKind      = core.NewKind[*CQ]()
	qpKind      = core.NewKind[*QP]()
	auxKind     = core.NewKind[*qpAux]()
)

// SetFaults arms the fabric with a fault injector and the RC retry policy
// (retryCnt retransmissions over an exponentially backed-off timeout starting
// at retryTO; core.DefaultTunables holds the defaults). With retryCnt 0 the
// first drop breaks the pair, as verbs' retry_cnt 0 does. A nil injector
// leaves the fabric fault-free.
func (f *Fabric) SetFaults(inj *fault.Injector, retryCnt int, retryTO sim.Time) {
	f.inj, f.retryCnt, f.retryTO = inj, retryCnt, retryTO
}

// SetRecorder makes the fabric add its fault events to rec (nil stops it).
func (f *Fabric) SetRecorder(rec *trace.Recorder) { f.rec = rec }

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

	// pool is the home pool of the wire buffers this device's QPs send and
	// absorb (see QP.wire): the pool of the process that opened the device.
	pool *core.BufPool

	// devID is fixed at OpenDeviceWith and qpnNext counts QPs created here, so
	// CreateQP touches no fabric-shared state.
	devID   int32
	qpnNext int32
	// firstQP heads the QPs created here, in creation order (QP.next), for
	// DrainPools; lastQP is the newest.
	firstQP, lastQP *QP

	// evts recycles the deferred-delivery records behind the posts, making
	// their scheduled events allocation-free in steady state.
	evts core.FreeList[sendEvt]
	// cqs lists the CQs created here, for Recycle.
	cqs []*CQ
}

// ErrNoDeviceAccess is returned when a non-privileged container opens the HCA.
var ErrNoDeviceAccess = fmt.Errorf("ib: device not visible (container lacks --privileged)")

// OpenDevice opens the host HCA from the given environment, with a wire
// buffer pool of the device's own that nothing counts or drains.
func (f *Fabric) OpenDevice(env *cluster.Container) (*Device, error) {
	return f.OpenDeviceWith(env, new(core.BufPool))
}

// OpenDeviceWith opens the host HCA from the given environment and takes the
// wire buffers of its QPs from pool: the pool of the process opening it, which
// that process counts and drains.
func (f *Fabric) OpenDeviceWith(env *cluster.Container, pool *core.BufPool) (*Device, error) {
	if f.ports[env.Host.Index] == nil {
		return nil, fmt.Errorf("ib: host %s has no HCA", env.Host.Name)
	}
	if !env.Privileged {
		return nil, ErrNoDeviceAccess
	}
	d := core.TakeOrNew(deviceKind)
	d.fabric, d.Env, d.devID, d.pool = f, env, int32(len(f.devices)), pool
	if cap(f.devices) == 0 {
		f.devices, _ = devicesKind.Take()
	}
	f.devices = append(f.devices, d)
	return d, nil
}

// MR is a registered (pinned) memory region.
//
// Every registration charges IBRegister; the handle itself is only host
// memory and is recycled. DeregisterMR puts it on its fabric's free list,
// where the next RegisterMR on any of the fabric's devices takes it, so a
// stream of register/deregister pairs allocates one handle. As with
// ibv_dereg_mr, deregister a region only when no work request targets it any
// more: the handle's next owner names another buffer.
type MR struct {
	// Buf is the registered buffer; RDMA operations address offsets in it.
	Buf []byte
}

// RegisterMR pins buf, charging the registration cost to the calling proc.
func (d *Device) RegisterMR(p *sim.Proc, buf []byte) *MR {
	p.Advance(d.fabric.prm.IBRegister(len(buf)))
	mr := d.fabric.mrs.Get()
	mr.Buf = buf
	return mr
}

// DeregisterMR unpins mr's region and recycles the handle, which the caller
// must not use again. Deregistering is free in the model: the cost of
// pinning is charged when a region is registered.
func (d *Device) DeregisterMR(mr *MR) { d.fabric.mrs.Put(mr) }

// Opcode identifies the operation a CQE completes.
type Opcode uint8

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
type WCStatus uint8

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

// CreateCQ makes a completion queue on the device: one that an earlier job
// handed on, with its batches, when the depot holds any.
func (d *Device) CreateCQ() *CQ {
	q := core.TakeOrNew(cqKind)
	q.dev = d
	d.cqs = append(d.cqs, q)
	return q
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

// Discard empties the queue at the end of a job: each receive completion's
// bounce buffer goes back as Recycle would have put it once its payload was
// copied out.
func (q *CQ) Discard() {
	for _, e := range q.entries {
		if e.Op == OpRecv {
			e.QP.Recycle(e.Buf)
		}
	}
	clear(q.entries)
	q.entries = q.entries[:0]
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

// QP is one side of a reliable-connected queue pair. An MPI runtime holds
// one per remote peer it has talked to, so the struct stays small: what only
// some QPs need sits behind aux.
type QP struct {
	dev    *Device
	peer   *QP
	sendCQ *CQ
	recvCQ *CQ
	// next is the device's next QP in creation order (Device.firstQP).
	next *QP
	// aux holds a QP's wire list and receive queues; nil until it has one.
	aux *qpAux

	// num numbers the QP on its device: QPN() is the device's index in the
	// high bits over num.
	num int32

	// ctx is the consumer's tag for the QP (verbs' qp_context): an MPI
	// runtime stores the far-end rank, so a completion names its peer
	// without a lookup table.
	ctx int32

	// autoRecv delivers inbound messages into freshly allocated bounce
	// buffers without posted receives, modeling an SRQ with a shared
	// buffer pool — what lets an MPI runtime serve O(ranks²) QPs without
	// O(ranks²) pre-posted buffers.
	autoRecv bool

	// broken marks the QP in the error state (retry exhaustion on either
	// end). Work posted afterwards completes immediately with WCFlushed.
	broken bool
}

// qpAux is what a QP has only once it needs it.
type qpAux struct {
	// wire holds wire buffers of messages this QP sent, from the far end
	// absorbing one to the next send (core.DirPool: the far end keeps what
	// replaces a buffer of its own, so only lopsided traffic lands here). A
	// buffer leaves through WireBuf, crosses the fabric owned by the post, and
	// is retired by Recycle on the peer QP.
	wire core.DirPool

	// Without SRQ-style delivery: posted receives waiting for a message, and
	// messages that arrived before one.
	recvQ []recvWQE
	inQ   []inbound
}

// more returns q's aux, making it on first use.
func (q *QP) more() *qpAux {
	if q.aux == nil {
		q.aux = core.TakeOrNew(auxKind)
	}
	return q.aux
}

// wire returns q's wire list, nil (empty) while q has no aux.
func (q *QP) wire() *core.DirPool {
	if q.aux == nil {
		return nil
	}
	return &q.aux.wire
}

// takeRecv pops the oldest posted receive, if there is one.
func (q *QP) takeRecv() (recvWQE, bool) {
	if q.aux == nil || len(q.aux.recvQ) == 0 {
		return recvWQE{}, false
	}
	wqe := q.aux.recvQ[0]
	q.aux.recvQ = popFront(q.aux.recvQ)
	return wqe, true
}

// popFront drops a queue's oldest entry by moving the rest down, so the
// array keeps its front and the next append reuses the freed slot; the
// vacated last slot is cleared and pins nothing. The queues are a few entries
// long, so the move costs less than the allocation a resliced front costs
// the next append.
func popFront[T any](q []T) []T {
	n := copy(q, q[1:])
	q[n] = *new(T)
	return q[:n]
}

// WireBuf returns a length-n wire buffer for a message this QP will send, for
// the caller to fill and hand to PostSendOwned. Contents are undefined.
func (q *QP) WireBuf(n int) []byte { return q.wire().Get(q.dev.pool, n) }

// Recycle retires a bounce buffer received via CQE.Buf on this QP: this
// device keeps it if it replaces one of its own now travelling, otherwise it
// goes back to the sending QP. Call it once the payload has been copied out;
// the CQE must not be touched afterwards. Recycling nil or a foreign buffer
// is a no-op.
func (q *QP) Recycle(buf []byte) { q.peer.retire(q.dev.pool, buf) }

// unpost takes back a wire buffer whose post failed before it left.
func (q *QP) unpost(wire []byte) { q.retire(q.dev.pool, wire) }

// retire is core.DirPool.Return for q's wire list, which it makes only when
// the buffer has to wait there.
func (q *QP) retire(home *core.BufPool, buf []byte) {
	if home.Reclaim(buf) {
		q.more().wire.Hold(buf)
	}
}

// Peer returns the remote end of the RC pair (nil before Connect).
func (q *QP) Peer() *QP { return q.peer }

// Broken reports whether the QP is in the error state.
func (q *QP) Broken() bool { return q.broken }

// EnableAutoRecv switches the QP to SRQ-style delivery: inbound SENDs
// complete with CQE.Buf pointing at a runtime-managed bounce buffer, and
// RDMA WRITE WITH IMM completes without consuming a posted receive.
func (q *QP) EnableAutoRecv() { q.autoRecv = true }

// QPN returns the queue pair number (unique per fabric).
func (q *QP) QPN() int { return int(q.dev.devID)<<20 | int(q.num) }

// SetContext stores the consumer's tag for the QP (verbs' qp_context).
func (q *QP) SetContext(v int) { q.ctx = int32(v) }

// Context returns what SetContext stored (0 before).
func (q *QP) Context() int { return int(q.ctx) }

// CreateQP makes a queue pair using the given CQs for send and receive
// completions (they may be the same CQ). QPNs are minted device-locally
// (device index in the high bits).
func (d *Device) CreateQP(sendCQ, recvCQ *CQ) *QP {
	d.qpnNext++
	q := core.TakeOrNew(qpKind)
	q.dev, q.num, q.sendCQ, q.recvCQ = d, d.qpnNext, sendCQ, recvCQ
	if d.lastQP == nil {
		d.firstQP = q
	} else {
		d.lastQP.next = q
	}
	d.lastQP = q
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

// sendEvt is a pooled deferred-event record for PostSend, PostWrite and
// PostRead: one instance backs the arrival at the peer, another the local
// completion (a READ uses one for both, request then response). Pooling them
// (plus the static callbacks below) removes the two per-message closure
// allocations from the eager, rendezvous and one-sided hot paths.
type sendEvt struct {
	q    *QP
	t    sim.Time
	data []byte // SEND: the wire buffer, owned; WRITE: the caller's source; READ: its destination
	n    int
	imm  uint64
	wrid uint64
	// RDMA WRITE target, RDMA READ source.
	mr      *MR
	off     int
	retries int32
	op      Opcode // local completion: OpSend, OpWrite or OpRead
	withImm bool
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
	default:
		if wqe, ok := peer.takeRecv(); ok {
			peer.deliver(ev.t, wqe.wrid, wqe.buf, ev.data, OpRecv, ev.imm)
			peer.Recycle(ev.data)
			break
		}
		x := peer.more()
		x.inQ = append(x.inQ, inbound{payload: ev.data, imm: ev.imm, op: OpRecv, at: ev.t})
	}
	q.dev.evts.Put(ev)
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
		default:
			if wqe, ok := peer.takeRecv(); ok {
				peer.recvCQ.push(ev.t, CQE{QP: peer, WRID: wqe.wrid, Op: OpWriteImm, Bytes: ev.n, Imm: ev.imm})
				break
			}
			x := peer.more()
			x.inQ = append(x.inQ, inbound{payload: nil, imm: ev.imm, op: OpWriteImm, at: ev.t})
		}
	}
	q.dev.evts.Put(ev)
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
	ev.t, ev.data, ev.mr = respArrive, nil, nil
	f.eng.AtArg(respArrive, localDone, ev)
}

// localDone delivers the poster's own completion: OpSend once the wire is
// released, OpWrite once the remote ack is back, OpRead once the response is.
func localDone(a any) {
	ev := a.(*sendEvt)
	ev.q.sendCQ.push(ev.t, CQE{QP: ev.q, WRID: ev.wrid, Op: ev.op, Bytes: ev.n, Retries: int(ev.retries)})
	ev.q.dev.evts.Put(ev)
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
			return t, retries, false
		}
	}
	if retries > 0 && f.rec != nil {
		f.rec.Add(trace.Record{T: t, Op: trace.OpRetransmit, Path: trace.PathNone, Rank: -1, Peer: host, Aux: uint64(retries)})
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
	if f.rec != nil {
		f.rec.Add(trace.Record{T: at, Op: trace.OpQPBreak, Path: trace.PathNone, Rank: -1, Peer: q.dev.Env.Host.Index, Aux: uint64(retries)})
	}
	f.eng.At(at, func() {
		q.sendCQ.push(at, CQE{QP: q, WRID: wrid, Op: op, Status: WCRetryExceeded, Retries: retries})
		peer.recvCQ.push(at, CQE{QP: peer, Op: OpRecv, Status: WCRemoteAbort})
	})
}

// flush completes a work request posted to a broken QP with WCFlushed on the
// send CQ, charging only the post overhead.
func (q *QP) flush(p *sim.Proc, wrid uint64, op Opcode) {
	p.Advance(q.dev.fabric.prm.IBPostOverhead)
	t := p.Now()
	sq := q.sendCQ
	q.dev.fabric.eng.At(t, func() {
		sq.push(t, CQE{QP: q, WRID: wrid, Op: op, Status: WCFlushed})
	})
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
	x := q.more()
	if len(x.inQ) > 0 {
		msg := x.inQ[0]
		x.inQ = popFront(x.inQ)
		q.deliver(maxT(p.Now(), msg.at), wrid, buf, msg.payload, msg.op, msg.imm)
		q.Recycle(msg.payload) // copied into buf; the sender's wire buffer is free
		return
	}
	x.recvQ = append(x.recvQ, recvWQE{wrid: wrid, buf: buf})
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
		p.Fatalf("ib: PostSend on unconnected QP %d", q.QPN())
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
	ae := q.dev.evts.Get()
	ae.q, ae.t, ae.data, ae.n, ae.imm = q, arrival, wire, n, imm
	f.eng.AtArg(arrival, sendArrival, ae)
	te := q.dev.evts.Get()
	te.q, te.t, te.n, te.wrid, te.retries, te.op = q, txEnd, n, wrid, int32(retries), OpSend
	f.eng.AtArg(txEnd, localDone, te)
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
		p.Fatalf("ib: PostWrite on unconnected QP %d", q.QPN())
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
	ae := q.dev.evts.Get()
	ae.q, ae.t, ae.data, ae.n, ae.imm = q, arrival, src, n, imm
	ae.mr, ae.off, ae.withImm = remote, off, withImm
	f.eng.AtArg(arrival, writeArrival, ae)
	// Local completion after the ack returns (one extra wire hop).
	ack := arrival + prm.IBWireLatency(loop)
	te := q.dev.evts.Get()
	te.q, te.t, te.n, te.wrid, te.retries, te.op = q, ack, n, wrid, int32(retries), OpWrite
	f.eng.AtArg(ack, localDone, te)
}

// PostRead RDMA-reads len(dst) bytes from remote[off:] into dst. The remote
// CPU is not involved; the bytes are those present when the request reaches
// the remote HCA, moved into dst in one copy at that instant (dst is
// undefined until the local OpRead completion anyway).
func (q *QP) PostRead(p *sim.Proc, wrid uint64, dst []byte, remote *MR, off int) {
	if q.peer == nil {
		p.Fatalf("ib: PostRead on unconnected QP %d", q.QPN())
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
	ev := q.dev.evts.Get()
	ev.q, ev.t, ev.data, ev.n, ev.wrid, ev.op = q, reqArrive, dst, len(dst), wrid, OpRead
	ev.mr, ev.off = remote, off
	f.eng.AtArg(reqArrive, readArrival, ev)
}
