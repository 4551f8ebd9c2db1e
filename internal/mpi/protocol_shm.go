package mpi

import (
	"cmpi/internal/cma"
	"cmpi/internal/core"
	"cmpi/internal/sim"
	"cmpi/internal/trace"
)

// pktKind is the type of a shared-memory ring packet.
type pktKind uint8

const (
	// pktEagerFirst opens an eager message: envelope plus first fragment.
	pktEagerFirst pktKind = iota
	// pktEagerFrag continues an eager or rendezvous-streamed message.
	pktEagerFrag
	// pktRTS opens a rendezvous message (CMA or SHM-staged): envelope and
	// the sender's buffer handle, no payload.
	pktRTS
	// pktCTS answers a SHM-staged rendezvous RTS: start streaming.
	pktCTS
	// pktFIN completes a CMA rendezvous at the sender.
	pktFIN
)

// pktHeaderBytes is the ring budget a data packet's header takes beside its
// payload. Control packets (RTS, CTS, FIN) take none: real rings keep
// dedicated control slots so that control traffic can never deadlock behind
// data.
const pktHeaderBytes = 32

// shmPacket is one entry in a ring direction. A data packet's payload
// aliases the sender's snapshot of the message (sendOp.data): the copy into
// the ring is executed once per message when the snapshot is taken, the copy
// out once per fragment in acceptFrag — the double copy the eager protocol
// is charged for.
type shmPacket struct {
	kind      pktKind
	seq       uint64 // per (sender->receiver) message sequence
	tag       int
	ctx       int // communicator context
	size      int // total message size (first/RTS)
	payload   []byte
	footprint int
	avail     sim.Time // receiver may consume from this time on
	sop       *sendOp  // rendezvous linkage (RTS/CTS/FIN)
	path      core.Path
}

// ringDir is one direction of a pair's shared ring: a byte-budgeted FIFO of
// SMPI_LENGTH_QUEUE bytes. Its two ends are the ring's pair.
type ringDir struct {
	q []*shmPacket

	// What the receiver handed back for the sender's next messages: payload
	// snapshots, packets, send ops (see pool.go for the rule and for who may
	// touch these).
	snaps core.DirPool
	pkts  core.DirList[shmPacket]
	ops   core.DirList[sendOp]

	used    int
	head    int32 // index of the first undrained packet in q
	stalled bool  // sender hit the budget; receiver must wake it
}

// shmRing is the per-pair bidirectional eager ring living in a shared
// memory segment (SMPI_LENGTH_QUEUE bytes of payload budget per direction),
// reached through its pair (pairShared.ring).
type shmRing struct {
	dirs [2]ringDir // [0]: lo->hi, [1]: hi->lo
}

// reset empties a ring for the depot (World.recycle). Its directions keep
// their arrays, cleared: the queue's here, the lists' in World.drainPools.
func (g *shmRing) reset() {
	for i := range g.dirs {
		d := &g.dirs[i]
		*d = ringDir{q: core.Cleared(d.q), snaps: d.snaps, pkts: d.pkts, ops: d.ops}
	}
}

// out returns the direction of the pair's ring that rank sends on.
func (ps *pairShared) out(rank int) *ringDir { return &ps.ring.dirs[ps.side(rank)] }

// in returns the direction of the pair's ring that rank receives on.
func (ps *pairShared) in(rank int) *ringDir { return &ps.ring.dirs[1-ps.side(rank)] }

// reserve claims footprint bytes of the direction's budget for r's next
// packet, or marks r, the sender, stalled when they do not fit. Control
// packets (footprint 0) always fit.
func (d *ringDir) reserve(r *Rank, footprint int) bool {
	if footprint > 0 && d.used+footprint > r.w.Opts.Tunables.SMPLengthQueue {
		d.stalled = true
		return false
	}
	d.used += footprint
	return true
}

// newPkt returns a zeroed packet for r, the direction's sender, to fill and
// push.
func (d *ringDir) newPkt(r *Rank) *shmPacket { return d.pkts.Get(&r.pools.pkts) }

// push appends a packet whose footprint r has reserved toward peer, the
// direction's receiver, which counts it inbound and is woken at the packet's
// availability time.
func (d *ringDir) push(r *Rank, peer int, pkt *shmPacket) {
	pkt.avail = r.p.Now()
	// Reclaim the drained prefix before append would grow the array, so the
	// queue reuses one allocation in steady state.
	if d.head > 0 && len(d.q) == cap(d.q) {
		n := copy(d.q, d.q[d.head:])
		for i := n; i < len(d.q); i++ {
			d.q[i] = nil
		}
		d.q = d.q[:n]
		d.head = 0
	}
	d.q = append(d.q, pkt)
	rcv := r.w.ranks[peer]
	rcv.inbound++
	rcv.p.UnparkAt(pkt.avail)
}

// drain consumes all packets of the pair's ring already available at the
// receiver's clock.
func (ps *pairShared) drain(r *Rank) bool {
	d := ps.in(r.rank)
	adv := false
	for int(d.head) < len(d.q) && d.q[d.head].avail <= r.p.Now() {
		pkt := d.q[d.head]
		d.q[d.head] = nil
		d.head++
		d.used -= pkt.footprint
		r.inbound--
		r.handleShmPacket(ps, pkt)
		d.pkts.Retire(&r.pools.pkts, pkt) // drain is the single consumption point
		adv = true
	}
	if int(d.head) == len(d.q) {
		d.q = d.q[:0]
		d.head = 0
	}
	if adv && d.stalled {
		d.stalled = false
		r.w.ranks[ps.other(r.rank)].p.UnparkAt(r.p.Now())
	}
	return adv
}

// opState tracks a ring-bound send operation.
type opState uint8

const (
	opEagerPush  opState = iota // pushing eager fragments
	opRTSPending                // rendezvous: RTS not yet in the ring
	opAwaitCTS                  // SHM rendezvous: RTS sent, waiting for CTS
	opStream                    // SHM rendezvous: streaming fragments
	opAwaitFIN                  // CMA rendezvous: RTS sent, waiting for FIN
	opDone
)

// sendOp is one in-flight send on the SHM/CMA channels.
type sendOp struct {
	req         *Request
	pr          *peerRec // the sender's record of the destination
	tag         int
	ctx         int
	seq         uint64
	data        []byte   // the payload: req.sbuf borrowed, or a snapshot of it (owned)
	dir         *ringDir // the direction the op travels on
	path        core.Path
	offset      int
	owned       bool // data is a pooled snapshot, retired with the op
	firstPushed bool
	state       opState
	queued      bool // currently listed in the destination's sendQ
	refs        int8 // sender-queue + receiver-stream references (see pool.go)
}

// enqueueShmSend queues a ring-bound send and pushes what fits immediately.
// If the pair's shared ring cannot be attached (injected fault), the pair's
// ring is dead and the send restarts on the path pathFor now gives it: the
// HCA channel, the stock path for non-colocated peers.
func (r *Rank) enqueueShmSend(req *Request, path core.Path) {
	pr := req.pr
	if r.ringFor(pr) == nil {
		// The record keeps the originally selected path; the message's
		// sequence number is still unassigned here and the HCA send below
		// will draw the same value the send-initiation record carried.
		r.trace(trace.OpShmFallback, trace.PathOf(path), req.peer, req.tag, req.ctx, len(req.sbuf), pr.sendSeq)
		r.startSend(req, r.pathFor(pr, len(req.sbuf), req.sync))
		return
	}
	d := pr.ps.out(r.rank)
	op := d.ops.Get(&r.pools.ops)
	op.refs = 2 // the sender's queue and the receiver's stream (see releaseOp)
	op.dir = d
	op.req = req
	op.pr = pr
	op.tag = req.tag
	op.ctx = req.ctx
	op.seq = pr.sendSeq
	op.path = path
	pr.sendSeq++
	if path == core.PathSHMEager {
		// Eager completes at the last push, before the receiver has copied
		// anything out: the ring must hold its own copy of the payload.
		r.snapshot(op, req.sbuf)
		op.state = opEagerPush
	} else {
		// Rendezvous: the request stays incomplete until the receiver has
		// the data (FIN) or asked for it to be streamed (CTS), so the user
		// buffer itself is the payload — a CMA read pulls straight from it.
		op.data = req.sbuf
		op.state = opRTSPending
	}
	r.enqueueOp(op)
	r.pushSends(pr)
}

// enqueueOp lists op in the per-destination send queue (idempotent).
func (r *Rank) enqueueOp(op *sendOp) {
	if op.queued {
		return
	}
	op.queued = true
	pr := op.pr
	if pr.q == nil {
		pr.q = core.TakeOrNew(queuesKind)
	}
	pr.q.sendQ = append(pr.q.sendQ, op)
	if !pr.listed {
		pr.listed = true
		r.sendDsts = append(r.sendDsts, pr)
	}
}

// pushSends advances the per-destination send queue. First packets are
// pushed strictly in queue order (preserving MPI matching order); fragments
// of distinct messages may interleave because the receiver routes them by
// sequence number.
func (r *Rank) pushSends(pr *peerRec) bool {
	q := pr.q.sendQ
	if len(q) == 0 {
		return false
	}
	// Queued ops imply the ring attached at enqueue time; it cannot disappear
	// afterwards.
	d := pr.ps.out(r.rank)
	adv := false
	for _, op := range q {
		if r.pushOp(d, op) {
			adv = true
		}
		if !op.firstPushed {
			break // later firsts must not overtake this one
		}
	}
	// Compact: drop ops that need no further ring pushes. A CMA rendezvous
	// op waiting for its FIN leaves the queue here and re-enters through
	// enqueueOp if the receiver degrades it to SHM streaming; it keeps its
	// sender reference (the FIN handler drops it). A done op's reference is
	// dropped here — in-flight ring fragments still alias its payload, so
	// the receiver's reference keeps the buffer alive until the stream is
	// fully consumed.
	keep := q[:0]
	for _, op := range q {
		if op.state == opDone || op.state == opAwaitFIN {
			op.queued = false
			if op.state == opDone {
				r.releaseOp(op)
			} else {
				// Track the FIN-awaiting op so reapPeer can fail it if the
				// receiver dies before the FIN arrives.
				r.addFinWait(op)
			}
			continue
		}
		keep = append(keep, op)
	}
	for i := len(keep); i < len(q); i++ {
		q[i] = nil // clear the compacted tail so dropped ops aren't pinned
	}
	pr.q.sendQ = keep
	return adv
}

// pushOp pushes as many packets of op as budget allows, charging the
// sender's clock for per-packet overhead and copies.
func (r *Rank) pushOp(d *ringDir, op *sendOp) bool {
	prm := &r.w.Opts.Params

	if op.state == opRTSPending {
		// Rendezvous envelope: a zero-footprint control packet carrying
		// the message metadata and the sender's buffer handle.
		r.p.Advance(prm.ShmPostOverhead)
		pkt := d.newPkt(r)
		pkt.kind, pkt.seq, pkt.tag, pkt.ctx, pkt.size = pktRTS, op.seq, op.tag, op.ctx, len(op.data)
		pkt.sop, pkt.path = op, op.path
		d.push(r, int(op.pr.rank), pkt)
		op.firstPushed = true
		r.trace(trace.OpRTS, trace.PathOf(op.path), int(op.pr.rank), op.tag, op.ctx, len(op.data), op.seq)
		if op.path == core.PathCMARndv {
			op.state = opAwaitFIN
		} else {
			op.state = opAwaitCTS
		}
		return true
	}
	if op.state != opEagerPush && op.state != opStream {
		return false
	}

	cs := r.crossSocket(int(op.pr.rank))
	cell := prm.ShmCellPayload
	adv := false
	for op.offset < len(op.data) || !op.firstPushed {
		n := len(op.data) - op.offset
		if n > cell {
			n = cell
		}
		kind := pktEagerFrag
		if !op.firstPushed {
			kind = pktEagerFirst
		}
		// Charge before pushing: claiming the cell plus the copy in. A
		// failed push keeps the charge as retry cost, matching a real
		// sender's failed poll-and-retry work.
		r.p.Advance(prm.ShmPostOverhead + prm.MemCopy(n, cs) + r.containerOverhead())
		if !d.reserve(r, n+pktHeaderBytes) {
			return adv
		}
		pkt := d.newPkt(r)
		pkt.kind, pkt.seq, pkt.tag, pkt.ctx, pkt.size = kind, op.seq, op.tag, op.ctx, len(op.data)
		pkt.payload = op.data[op.offset : op.offset+n]
		pkt.footprint = n + pktHeaderBytes
		pkt.sop, pkt.path = op, op.path
		d.push(r, int(op.pr.rank), pkt)
		op.firstPushed = true
		op.offset += n
		adv = true
	}
	op.state = opDone
	r.completeSend(op.req)
	return adv
}

// handleShmPacket processes one inbound ring packet on the receiver.
func (r *Rank) handleShmPacket(ps *pairShared, pkt *shmPacket) {
	prm := &r.w.Opts.Params
	src := ps.other(r.rank)
	switch pkt.kind {
	case pktEagerFirst, pktRTS:
		r.p.Advance(prm.ShmPollOverhead)
		env := r.pools.envs.Get()
		env.src, env.tag, env.ctx, env.size, env.seq = src, pkt.tag, pkt.ctx, pkt.size, pkt.seq
		env.path, env.sop = pkt.path, pkt.sop
		if pkt.kind == pktEagerFirst {
			r.openStream(env)
		}
		if req := r.matchPosted(src, pkt.tag, pkt.ctx); req != nil {
			r.bindEnvelope(env, req)
			if req.done && pkt.kind == pktEagerFirst {
				// A zero-size eager message completed inside bindEnvelope and
				// the envelope is already recycled: do the stream bookkeeping
				// acceptFrag would otherwise handle.
				r.closeStream(env)
				r.releaseOp(pkt.sop)
				return
			}
		} else {
			if pkt.kind == pktEagerFirst {
				env.staged = r.pools.buf.Get(pkt.size)
			}
			r.unexpected.push(env)
		}
		if pkt.kind == pktEagerFirst {
			r.acceptFrag(env, pkt.payload)
		}

	case pktEagerFrag:
		env := r.stream(src, pkt.seq)
		if env == nil {
			r.p.Fatalf("shm fragment for unknown stream src=%d seq=%d", src, pkt.seq)
		}
		r.p.Advance(prm.ShmPollOverhead)
		r.acceptFrag(env, pkt.payload)

	case pktCTS:
		// We are the original sender: start streaming the payload. The op
		// may have left the send queue already (a CMA rendezvous parked in
		// opAwaitFIN that the receiver degraded to SHM streaming), so
		// re-list it before pushing. A streamed send completes at its last
		// push while ring fragments still alias the payload, so from here on
		// the borrowed user buffer will not do: take the snapshot now.
		op := pkt.sop
		if op.state == opAwaitFIN {
			r.removeFinWait(op)
		}
		r.snapshot(op, op.data)
		op.state = opStream
		r.enqueueOp(op)
		r.pushSends(op.pr)

	case pktFIN:
		// We are the original sender of a CMA rendezvous: buffer released.
		// The op left the send queue at opAwaitFIN keeping its sender
		// reference; drop it here.
		op := pkt.sop
		r.removeFinWait(op)
		op.state = opDone
		r.completeSend(op.req)
		r.releaseOp(op)
	}
}

// acceptFrag lands one fragment of an eager/streamed message, charging the
// receiver-side copy-out.
func (r *Rank) acceptFrag(env *envelope, payload []byte) {
	prm := &r.w.Opts.Params
	cs := r.crossSocket(env.src)
	r.p.Advance(prm.MemCopy(len(payload), cs) + r.containerOverhead())
	if env.req != nil {
		copy(env.req.rbuf[env.received:], payload)
	} else {
		copy(env.staged[env.received:], payload)
	}
	env.received += len(payload)
	if env.received >= env.size {
		r.closeStream(env)
		if env.sop != nil {
			// Last fragment consumed: no ring packet aliases the sender's
			// payload snapshot anymore, so drop the receiver's reference.
			r.releaseOp(env.sop)
			env.sop = nil
		}
		if env.req != nil {
			r.completeRecv(env.req, env)
		} else {
			env.complete = true
		}
	}
}

// performCMARead executes the single-copy rendezvous: the receiver pulls
// the payload straight out of the sender's user buffer (env.sop.data is the
// borrowed req.sbuf) into its own with one process_vm_readv call — the only
// copy of the message — then releases the sender with a FIN.
func (r *Rank) performCMARead(env *envelope, req *Request) {
	prm := &r.w.Opts.Params
	ps := req.pr.ps
	if ps.cmaDead || r.w.inj.CMAFails(r.env.Host.Index, r.p.Now()) {
		// Graceful degradation: process_vm_readv failed, so pull the payload
		// through the shared ring instead (rendezvous streaming, the UseCMA=0
		// path). The CTS flips the parked sender from opAwaitFIN to
		// streaming; future transfers on this pair skip CMA entirely.
		r.trace(trace.OpCMAFallback, trace.PathOf(core.PathCMARndv), env.src, env.tag, env.ctx, env.size, env.seq)
		ps.cmaDead = true
		env.path = core.PathSHMRndv
		env.sop.path = core.PathSHMRndv
		r.sendCTS(env, req.pr)
		return
	}
	cs := r.crossSocket(env.src)
	senderEnv := r.w.Deploy.Placements[env.src].Env
	r.p.Advance(prm.CMACopy(env.size, cs) + r.containerOverhead())
	if _, err := cma.Readv(r.env, senderEnv, req.rbuf[:env.size], env.sop.data); err != nil {
		r.p.Fatalf("CMA read from rank %d: %v", env.src, err)
	}
	r.pushControl(req.pr, pktFIN, env.sop)
	// The payload has been read out; drop the receiver's reference (the
	// sender's is dropped when it consumes the FIN).
	r.releaseOp(env.sop)
	env.sop = nil
	r.completeRecv(req, env)
}

// sendCTS releases a SHM-staged rendezvous sender.
func (r *Rank) sendCTS(env *envelope, pr *peerRec) {
	r.trace(trace.OpCTS, trace.PathOf(env.path), env.src, env.tag, env.ctx, env.size, env.seq)
	r.openStream(env)
	r.pushControl(pr, pktCTS, env.sop)
}

// pushControl sends a zero-footprint control packet (CTS or FIN) about sop
// to a peer. Control packets answer data that arrived on the pair's ring, so
// the ring exists.
func (r *Rank) pushControl(pr *peerRec, kind pktKind, sop *sendOp) {
	d := pr.ps.out(r.rank)
	r.p.Advance(r.w.Opts.Params.ShmPostOverhead)
	pkt := d.newPkt(r)
	pkt.kind, pkt.sop = kind, sop
	d.push(r, int(pr.rank), pkt)
}

// openStream routes the fragments of env's message to it until the last one
// lands (acceptFrag).
func (r *Rank) openStream(env *envelope) { r.streams = append(r.streams, env) }

// stream returns the open stream of message seq from src, or nil. A rank
// has few streams open at once — most eager messages are one fragment, and
// their stream closes in the packet that opened it — so a scan beats a map.
func (r *Rank) stream(src int, seq uint64) *envelope {
	for _, env := range r.streams {
		if env.src == src && env.seq == seq {
			return env
		}
	}
	return nil
}

// closeStream stops routing fragments to env.
func (r *Rank) closeStream(env *envelope) {
	for i, e := range r.streams {
		if e == env {
			last := len(r.streams) - 1
			r.streams[i], r.streams[last] = r.streams[last], nil
			r.streams = r.streams[:last]
			return
		}
	}
}
