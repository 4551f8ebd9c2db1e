package mpi

import "cmpi/internal/core"

// Free lists for the per-message hot-path objects: ring packets, send
// operations, envelopes, requests and the byte buffers behind them. None of
// them is locked: one goroutine dispatches a world, and each list has one
// owner.
//
// Where the lists live, and why a steady stream allocates nothing:
//
//   - Rank.pools (worldPools) is the rank's home: everything the rank takes
//     for its own sends and receives comes from here unless a direction list
//     has it, and only the owning rank's process touches it. The message
//     memory a rank body asks for (AllocMem, WinAllocate) and the library's
//     own temporaries come from the same byte pool.
//   - Packets, send ops and payload snapshots cross a shared-memory ring in
//     one direction: taken by the direction's sender, retired by its
//     receiver, who keeps them at home or leaves them on the direction
//     (ringDir.snaps/pkts/ops) by the rule core.DirPool states.
//   - A direction's lists are pair state like the ring queue itself, taken
//     from by the sender and given back to by the receiver.
//   - ib.QP's wire list does the same job for HCA wire messages (see ib.QP).
//
// Who owns the bytes behind sendOp.data, per path:
//
//   - SHM eager: a pooled snapshot, taken at Isend (the send completes at
//     its last push, long before the receiver copies the fragments out).
//     op.owned is set; releaseOp retires it.
//   - CMA rendezvous: req.sbuf itself, borrowed. The request completes only
//     when the FIN arrives, after the receiver's process_vm_readv, so the
//     user may not touch the buffer while anyone reads it. Never pooled.
//   - SHM rendezvous, and CMA degraded to it: borrowed until the CTS, then
//     snapshotted like eager, because streaming completes at the last push.
//
// Lifetimes worth knowing before touching this code:
//
//   - shmPacket: born in pushOp/pushControl, consumed exactly once in
//     pairShared.drain, recycled there. pushOp takes a packet only once
//     ringDir.reserve has claimed its budget, so a full ring rejects none.
//   - sendOp: reference-counted (refs=2). Ring fragments alias op.data and
//     an RTS carries the op as the sender's buffer handle, so the sender
//     (queue) and the receiver (stream) each hold a reference; whoever drops
//     last frees the op and an owned snapshot. See releaseOp. An op whose
//     peer died keeps the dead side's reference and is left to the GC.
//   - envelope: born at the first inbound packet, recycled in completeRecv.
//     Envelopes of failed requests are deliberately leaked to the GC —
//     error paths are cold and auditing their aliasing buys nothing.
//   - Request: recycled by whoever owns the handle and says it is done with
//     it. The blocking wrappers (Send/Recv/Ssend/Sendrecv) own theirs, and
//     every collective stepper (machine.go) owns each request it posts and
//     returns it the moment its wait completes (waitFree), so a warm rank runs
//     collectives without allocating a handle. A handle from Isend/Irecv is
//     the user's until it is passed to Rank.Release (MPI_Request_free), which
//     takes completed handles only. Wait, WaitAll and Test never recycle:
//     callers read a handle's status and error after them. An HCA
//     rendezvous is named by its pair's rndv table, which fails the requests
//     it names when the channel breaks or the peer dies, so the table lets go
//     of each side when that side completes: of the send at the sender's own
//     RDMA write completion (dropRndvSend), of the receive at the receiver's
//     WRITE_IMM completion, which also retires the entry and recycles the
//     receiver's MR handle. A handle recycled after that belongs to no
//     rendezvous. Under poolStrict a released handle is poisoned instead of
//     recycled, so a later Done or Err panics.
//
// Everything on a free list outlives the world: when a run ends,
// World.drainPools hands every free byte buffer and object — the homes' and
// the directions' lists, then the fabric's event records, MR handles and CQ
// batches — and the arrays of the home lists to the process-wide depot in
// core/pool.go, where the next world's misses find them (a core.FreeList's
// miss asks the depot before new). Objects are
// zeroed when they are put, so none carries state into the next world, and
// under poolStrict a depot take checks that nothing wrote to one since.
// Buffers and objects still referenced by an unfinished or failed operation,
// and handles the user never released, are on no list and stay with the GC.
//
// A world that ended cleanly hands on its connection state too
// (World.recycle): pairs with their rings, peer records with their send
// queues, each rank's peer index and ring list, the detector's segments, the
// fabric's devices, CQs, QPs and QP extensions, and last the ranks
// themselves, whose counters the world keeps (rankTotals). Each kind is built
// in one place, which takes from the depot before it allocates: NewWorld,
// Rank.peer, peerTable.add, ringFor, enqueueOp, and ib's OpenDeviceWith,
// CreateCQ, CreateQP and QP.more. A ring or a QP extension keeps the arrays
// of its queues and direction lists, cleared, and a rank those of its
// queues. A failed world hands on nothing of this, since an operation that
// never finished may still name it.

// worldPools is the per-Rank recycling state (the rank's home lists).
type worldPools struct {
	buf  core.BufPool // payload snapshots, staging buffers
	pkts core.FreeList[shmPacket]
	ops  core.FreeList[sendOp]
	envs core.FreeList[envelope]
	reqs core.FreeList[Request]
}

// drain hands everything on the rank's home lists to the depot.
func (wp *worldPools) drain(dr *core.Drain) {
	dr.Home(&wp.buf)
	wp.reqs.Drain(dr)
	wp.envs.Drain(dr)
	wp.ops.Drain(dr)
	wp.pkts.Drain(dr)
}

// kept is what of the drained lists a recycled rank keeps: their arrays.
func (wp *worldPools) kept() worldPools {
	return worldPools{wp.buf.Kept(), wp.pkts.Kept(), wp.ops.Kept(), wp.envs.Kept(), wp.reqs.Kept()}
}

// AllocMem returns n bytes of message memory from the rank's pool
// (MPI_Alloc_mem): for a body's send, receive and window buffers, for the
// library's own temporaries, and, viewed as typed arrays through AllocMemOf,
// for an application kernel's working state. The contents are undefined —
// the bytes of whatever message, in this world or an earlier one of the
// process, held the buffer last — so write or receive into it before
// reading. Only the rank's own process may call it. Hand the memory back
// with FreeMem; what a body never frees is the collector's.
func (r *Rank) AllocMem(n int) []byte { return r.pools.buf.Get(n) }

// FreeMem retires memory from AllocMem (MPI_Free_mem) so that the library's
// snapshots and staging, the body's next size point and the next world of the
// process can have it. As in MPI, freeing a buffer that an incomplete request
// or an open window still references is the caller's bug: the next owner's
// bytes land in that transfer. Pass what AllocMem returned (any length of it,
// its capacity intact), or nil. A pool takes any buffer whose capacity is a
// class's exact capacity, so a subslice can be taken for a whole buffer that
// aliases another: b[576:] of a 1088-byte buffer has the capacity of a
// 512-byte one. Once any request of the rank has failed the buffer is left to
// the GC instead: a failed rendezvous receive may still have an RDMA write in
// flight toward it.
func (r *Rank) FreeMem(buf []byte) {
	if !r.reqFailed {
		r.pools.buf.Free(buf)
	}
}

// AppendMem is append for memory from AllocMem, or nil: a full buffer moves
// to one of the next class up and is freed, so a batch built entry by entry
// costs nothing once the pool is warm. Past the largest class (16 MiB) it
// grows by a quarter at a time, from the allocator, as AllocMem does.
func (r *Rank) AppendMem(buf []byte, data ...byte) []byte {
	if n := len(buf) + len(data); n > cap(buf) {
		grown := r.AllocMem(max(n, cap(buf)+cap(buf)/4+1))[:len(buf)]
		copy(grown, buf)
		r.FreeMem(buf)
		buf = grown
	}
	return append(buf, data...)
}

// ExchangeV sends blocks[d] to every rank d and puts in its place what rank
// d sent this one (MPI_Alltoallv with the counts exchanged first): the
// exchange is in place, and blocks[me] stays as it is. The byte counts go in
// one Alltoall; then, peer by peer in rank order, a receive is posted for a
// non-zero count and a send for a non-empty block, all on tag. Every block
// but the caller's own is freed once sent, so pass memory from AllocMem or
// AppendMem; every block it leaves is the caller's to FreeMem.
func (r *Rank) ExchangeV(blocks [][]byte, tag int) {
	counts, inCounts := r.AllocMem(8*r.size), r.AllocMem(8*r.size)
	for d, b := range blocks {
		le.PutUint64(counts[8*d:], uint64(len(b)))
	}
	r.Alltoall(counts, inCounts, 8)
	reqs := NewRequests(2 * r.size)
	for peer, out := range blocks {
		if peer == r.rank {
			continue
		}
		if blocks[peer] = r.AllocMem(int(le.Uint64(inCounts[8*peer:]))); len(blocks[peer]) > 0 {
			reqs = append(reqs, r.Irecv(peer, tag, blocks[peer]))
		}
		if len(out) > 0 {
			reqs = append(reqs, r.Isend(peer, tag, out))
		} else {
			r.FreeMem(out)
		}
	}
	r.WaitAll(reqs...)
	for _, q := range reqs {
		if q.isSend {
			r.FreeMem(q.sbuf)
		}
	}
	r.Release(reqs...)
	FreeRequests(reqs)
	r.FreeMem(counts)
	r.FreeMem(inCounts)
}

// getReq returns a zeroed Request from the pool.
func (r *Rank) getReq() *Request { return r.pools.reqs.Get() }

// putReq recycles a request the caller owns. Failed requests (their
// envelopes/ops may still be referenced from error-path state) are left to
// the GC.
func (r *Rank) putReq(req *Request) {
	if req == nil || req.err != nil {
		return
	}
	r.pools.reqs.Put(req)
}

// snapshot makes op.data a pooled copy of src. r is the op's sender.
func (r *Rank) snapshot(op *sendOp, src []byte) {
	op.data = op.dir.snaps.GetCopy(&r.pools.buf, src)
	op.owned = true
}

// dropUndelivered hands back, at the end of a world, what the messages r never
// received still hold, where r would have put it on receipt: the bounce
// buffer of each completion left in its CQ and of each unexpected HCA eager
// message, and each packet left in a ring toward it — with, for the first
// packet of an eager message, r's reference on the send, whose release
// retires the payload snapshot.
func (r *Rank) dropUndelivered() {
	if r.cq != nil {
		r.cq.Discard()
	}
	for _, env := range r.unexpected.items() {
		r.dropStaged(env)
	}
	for _, ps := range r.localPairs {
		d := ps.in(r.rank)
		for _, pkt := range d.q[d.head:] {
			if pkt.kind == pktEagerFirst {
				r.releaseOp(pkt.sop)
			}
			d.pkts.Retire(&r.pools.pkts, pkt)
			r.inbound--
		}
		clear(d.q)
		d.q, d.head = d.q[:0], 0
	}
}

// releaseOp drops one reference; the last one retires the op — and its
// payload snapshot, if it owns one; a borrowed user buffer never reaches a
// pool — to r's home lists or the direction it travelled on. The sender's
// reference is dropped when the op leaves the send queue done (or on FIN for
// CMA rendezvous); the receiver's when the inbound stream completes (or after
// the CMA read).
func (r *Rank) releaseOp(op *sendOp) {
	op.refs--
	if op.refs > 0 {
		return
	}
	if op.refs < 0 {
		r.p.Fatalf("sendOp released twice (dst=%d tag=%d seq=%d)", op.pr.rank, op.tag, op.seq)
	}
	d := op.dir
	if op.owned {
		d.snaps.Return(&r.pools.buf, op.data)
	}
	d.ops.Retire(&r.pools.ops, op)
}
