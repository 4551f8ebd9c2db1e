package mpi

import (
	"encoding/binary"

	"cmpi/internal/core"
	"cmpi/internal/ib"
	"cmpi/internal/trace"
)

// HCA wire message kinds.
const (
	hcaEager uint8 = iota // header + full payload in one SEND
	hcaRTS                // rendezvous request: header only
	hcaCTS                // rendezvous clear-to-send: header only
)

// hcaHdrLen is the wire header size: kind, communicator context, source
// rank, tag, payload size, message sequence, rendezvous id.
const hcaHdrLen = 32

// postHdr encodes a wire message straight into one of qp's wire buffers and
// posts it owned: the encode is the only sender-side copy of the payload, and
// the buffer comes back to qp's free list once the receiver has absorbed it.
func (r *Rank) postHdr(qp *ib.QP, kind uint8, ctx, tag, size int, seq, msgID uint64, payload []byte) {
	wire := encodeHdr(qp.WireBuf(hcaHdrLen+len(payload)), kind, ctx, r.rank, tag, size, seq, msgID, payload)
	qp.PostSendOwned(r.p, 0, wire, 0)
}

func encodeHdr(buf []byte, kind uint8, ctx, src, tag, size int, seq, msgID uint64, payload []byte) []byte {
	buf[0] = kind
	binary.LittleEndian.PutUint16(buf[2:], uint16(ctx))
	binary.LittleEndian.PutUint32(buf[4:], uint32(src))
	binary.LittleEndian.PutUint32(buf[8:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(size))
	binary.LittleEndian.PutUint64(buf[16:], seq)
	binary.LittleEndian.PutUint64(buf[24:], msgID)
	copy(buf[hcaHdrLen:], payload)
	return buf
}

type hcaMsg struct {
	kind    uint8
	ctx     int
	src     int
	tag     int
	size    int
	seq     uint64
	msgID   uint64
	payload []byte
}

func parseHdr(buf []byte) hcaMsg {
	return hcaMsg{
		kind:    buf[0],
		ctx:     int(binary.LittleEndian.Uint16(buf[2:])),
		src:     int(binary.LittleEndian.Uint32(buf[4:])),
		tag:     int(int32(binary.LittleEndian.Uint32(buf[8:]))),
		size:    int(binary.LittleEndian.Uint32(buf[12:])),
		seq:     binary.LittleEndian.Uint64(buf[16:]),
		msgID:   binary.LittleEndian.Uint64(buf[24:]),
		payload: buf[hcaHdrLen:],
	}
}

// hcaEagerSend transmits a small message over the network channel. The
// payload is copied (charged) into a pre-registered wire buffer of the QP,
// so the send completes locally right away — classic eager semantics.
func (r *Rank) hcaEagerSend(req *Request) {
	prm := &r.w.Opts.Params
	pr := req.pr
	qp := r.qpFor(pr)
	seq := pr.sendSeq
	pr.sendSeq++
	r.p.Advance(prm.MemCopy(len(req.sbuf), false))
	r.postHdr(qp, hcaEager, req.ctx, req.tag, len(req.sbuf), seq, 0, req.sbuf)
	r.countOp(core.ChannelHCA, len(req.sbuf))
	r.completeSend(req)
}

// hcaRndvSend starts a rendezvous transfer: register the user buffer, send
// RTS, and wait for the CTS to RDMA-write the payload.
func (r *Rank) hcaRndvSend(req *Request) {
	pr := req.pr
	qp := r.qpFor(pr)
	seq := pr.sendSeq
	pr.sendSeq++
	msgID := r.newMsgID()
	ps := pr.ps
	if ps.rndv == nil {
		ps.rndv = make(map[uint64]rndvState)
	}
	ps.rndv[msgID] = rndvState{sreq: req}
	// Pin the payload for the later zero-copy RDMA write.
	r.p.Advance(r.w.Opts.Params.IBRegister(len(req.sbuf)))
	r.postHdr(qp, hcaRTS, req.ctx, req.tag, len(req.sbuf), seq, msgID, nil)
	r.trace(trace.OpRTS, trace.PathOf(core.PathHCARndv), req.peer, req.tag, req.ctx, len(req.sbuf), seq)
}

// handleCQE dispatches one completion from the rank's CQ.
func (r *Rank) handleCQE(cqe ib.CQE) {
	if r.prof != nil && cqe.Retries > 0 {
		r.prof.Faults.Retransmits += uint64(cqe.Retries)
	}
	if cqe.Status != ib.WCSuccess {
		r.handleChannelError(cqe)
		return
	}
	switch cqe.Op {
	case ib.OpRecv:
		// Once the payload is copied out, or unless an unexpected eager
		// message waits in it, the sender's wire buffer goes back to the
		// sending QP.
		if !r.handleHCAMessage(parseHdr(cqe.Buf), cqe.Buf) {
			cqe.QP.Recycle(cqe.Buf)
		}
	case ib.OpWriteImm:
		// Rendezvous payload landed in our posted buffer: complete the recv.
		peer := cqe.QP.Context()
		ps := r.peer(peer).ps
		st := ps.rndv[cqe.Imm]
		if st.rreq == nil {
			if r.w.rankDead(peer) {
				// The sender crashed after posting the write; losePeer already
				// failed our side and dropped the rendezvous entry. The stale
				// payload landing now is harmless — ignore it.
				return
			}
			r.p.Fatalf("WRITE_IMM for unknown rendezvous id %d", cqe.Imm)
		}
		delete(ps.rndv, cqe.Imm)
		// Nothing targets the landing buffer any more: its handle serves the
		// next registration (the charge was paid in hcaSendCTS).
		r.dev.DeregisterMR(st.mr)
		env := st.rreq.env
		env.received = env.size
		r.completeRecv(st.rreq, env)
	case ib.OpWrite:
		ref, ok := r.wridOps[cqe.WRID]
		if !ok {
			r.p.Fatalf("WRITE completion for unknown wrid %d", cqe.WRID)
		}
		delete(r.wridOps, cqe.WRID)
		switch {
		case ref.sreq != nil:
			// The payload is in the receiver's buffer. The table lets go of
			// the send here (the write's wrid is its msgID), so a handle the
			// caller releases and reuses is never failed with this pair.
			r.dropRndvSend(cqe.QP.Context(), cqe.WRID)
			r.completeSend(ref.sreq)
		case ref.win != nil:
			ref.win.outstanding--
		}
	case ib.OpRead:
		ref, ok := r.wridOps[cqe.WRID]
		if !ok {
			r.p.Fatalf("READ completion for unknown wrid %d", cqe.WRID)
		}
		delete(r.wridOps, cqe.WRID)
		if ref.win != nil {
			ref.win.outstanding--
		}
	case ib.OpSend:
		// Eager bounce buffers were copied at post time; nothing to do.
	}
}

// handleChannelError reacts to an error completion: the RC connection to one
// peer is gone. Under ErrorsAreFatal the rank (and with it the job) aborts
// with a typed *RankError wrapping the *ChannelError. Under ErrorsReturn the
// completion's own work request fails, and losePeer fails every other
// operation bound to the dead channel, so no caller blocks forever.
func (r *Rank) handleChannelError(cqe ib.CQE) {
	peer := cqe.QP.Context()
	ce := &ChannelError{Peer: peer, Status: cqe.Status, Retries: cqe.Retries}
	if r.prof != nil && cqe.Status != ib.WCFlushed {
		r.prof.Faults.RetryExhausted++
	}
	if r.w.Opts.ErrHandler == ErrorsAreFatal {
		r.w.failRank(r, ce) // does not return
	}
	pr := r.peer(peer)
	pr.dead = true
	// Pending RDMA work requests on the pair flush individually; the wrid
	// routing for a specific failed WRID still resolves here.
	if ref, ok := r.wridOps[cqe.WRID]; ok && cqe.WRID != 0 {
		delete(r.wridOps, cqe.WRID)
		if ref.sreq != nil {
			r.failRequest(ref.sreq, ce)
		}
		if ref.win != nil {
			ref.win.outstanding--
		}
	}
	r.losePeer(pr, ce)
}

// handleHCAMessage processes an inbound SEND (eager payload or rendezvous
// control) that arrived in wire. It reports whether an unexpected eager
// message keeps wire as its staging buffer (dropStaged hands it back).
func (r *Rank) handleHCAMessage(m hcaMsg, wire []byte) (kept bool) {
	prm := &r.w.Opts.Params
	switch m.kind {
	case hcaEager:
		env := r.pools.envs.Get()
		env.src, env.tag, env.ctx, env.size, env.seq = m.src, m.tag, m.ctx, m.size, m.seq
		env.path, env.hca = core.PathHCAEager, true
		if req := r.matchPosted(m.src, m.tag, m.ctx); req != nil {
			// Copy from the wire buffer into the user buffer.
			r.bindEnvelope(env, req)
			if req.done {
				return false // zero-size: completed (and recycled) in bindEnvelope
			}
			r.p.Advance(prm.EagerRecvCopy(m.size))
			copy(req.rbuf, m.payload[:m.size])
			env.received = m.size
			r.completeRecv(req, env)
			return false
		}
		// Unexpected: the payload waits in the wire buffer, header first,
		// and is copied once, at match (bindEnvelope).
		env.staged = wire[:hcaHdrLen+m.size]
		env.received = m.size
		env.complete = true
		r.unexpected.push(env)
		return true

	case hcaRTS:
		env := r.pools.envs.Get()
		env.src, env.tag, env.ctx, env.size, env.seq = m.src, m.tag, m.ctx, m.size, m.seq
		env.path, env.hca, env.msgID = core.PathHCARndv, true, m.msgID
		if req := r.matchPosted(m.src, m.tag, m.ctx); req != nil {
			r.bindEnvelope(env, req)
			return false
		}
		r.unexpected.push(env)

	case hcaCTS:
		// We are the rendezvous sender: RDMA-write the payload from the pinned
		// user buffer into the receiver's registered buffer (the one copy),
		// then complete on the write CQE.
		pr := r.peer(m.src)
		st, known := pr.ps.rndv[m.msgID]
		if st.mr == nil {
			if !known && r.w.rankDead(m.src) {
				// The receiver crashed after posting its CTS; our side of the
				// rendezvous was already reaped. Drop the stale grant.
				return false
			}
			r.p.Fatalf("CTS for unknown rendezvous id %d", m.msgID)
		}
		qp := r.qpFor(pr)
		qp.PostWrite(r.p, r.routeWrid(m.msgID, wridRef{sreq: st.sreq}), st.sreq.sbuf, st.mr, 0, true, m.msgID)
		r.countOp(core.ChannelHCA, len(st.sreq.sbuf))

	default:
		r.p.Fatalf("unknown HCA message kind %d", m.kind)
	}
	return false
}

// dropRndvSend removes the sender's request from rendezvous msgID with peer
// once the sender's RDMA write has completed. The receiver removes the whole
// entry at its WRITE_IMM completion, which may come first.
func (r *Rank) dropRndvSend(peer int, msgID uint64) {
	ps := r.peer(peer).ps
	if st, ok := ps.rndv[msgID]; ok {
		st.sreq = nil
		ps.rndv[msgID] = st
	}
}

// hcaSendCTS registers the receive buffer and releases the rendezvous
// sender (called when an RTS matches a posted receive).
func (r *Rank) hcaSendCTS(env *envelope, req *Request) {
	tab := req.pr.ps.rndv
	st, known := tab[env.msgID]
	if !known {
		r.p.Fatalf("RTS for unknown rendezvous id %d", env.msgID)
	}
	st.rreq = req
	st.mr = r.dev.RegisterMR(r.p, req.rbuf[:env.size])
	tab[env.msgID] = st
	qp := r.qpFor(req.pr)
	r.postHdr(qp, hcaCTS, env.ctx, env.tag, env.size, env.seq, env.msgID, nil)
	r.trace(trace.OpCTS, trace.PathOf(core.PathHCARndv), env.src, env.tag, env.ctx, env.size, env.seq)
}
