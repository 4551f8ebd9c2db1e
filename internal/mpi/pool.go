package mpi

import "cmpi/internal/core"

// Free lists for the per-message hot-path objects: ring packets, send
// operations, envelopes, requests and the byte buffers behind them. None of
// them is locked; each list has one owner, and the epoch-dispatch footprint
// rules decide who may touch it.
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
//     receiver. If the receiver always kept them, a one-way stream would
//     drain the sender's home and pile everything up in the receiver's; if
//     every direction always got its own back, an all-pairs exchange would
//     warm up one set per pair instead of one per rank. So whoever retires an
//     object keeps it at home when it replaces one the rank itself has sent
//     away, and otherwise hands it back to the direction (ringDir.snaps/
//     pkts/ops), where the sender looks first: symmetric traffic lives off
//     the home pools, one-way traffic off the direction's. core.DirPool
//     states the rule for byte buffers, dirList below for objects.
//   - A direction's lists are pair state like the ring queue itself: the
//     sender touches them only while its group owns the receiver's rank
//     resource (it holds a pair claim, or is finishing the very call that
//     released it), the receiver only from its own process — which that same
//     resource serializes against the sender. Handing capacity back to the
//     sender's *home* from the receiver's drain would NOT be safe: a sender
//     woken by a third rank's group never has its own footprint consulted,
//     so it can be running, and using its home, concurrently with a receiver
//     that is still draining its fragments.
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
//     shmRing.drain, recycled there. A packet rejected by tryPush on a full
//     ring is recycled by the pusher.
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
//     callers read a handle's status and error after them. HCA-rendezvous
//     sends are excluded either way (noPool): the send completes at its local
//     RDMA write completion, but the pair's rndv table keeps naming the
//     request until the receiver's WRITE_IMM completion removes the entry,
//     and a channel error or dead peer in between fails every request the
//     table names — which, recycled, would be another operation's. Under
//     poolStrict a released handle is poisoned instead of recycled, so a
//     later Done or Err panics.
//
// Byte buffers outlive the world, the objects above do not: when a run ends,
// World.drainPools hands every free byte buffer — the homes' and the
// directions' — to the process-wide depot in core/pool.go, where the next
// world's misses find them. Buffers still referenced by an unfinished or
// failed operation are on no list and stay with the GC.

// freeList is a typed free list. get returns a zeroed object; put zeroes
// before listing so stale pointers never pin garbage or leak across reuses.
type freeList[T any] struct {
	free []*T
	ctr  core.PoolCounters
	// lent counts the objects a dirList took from this list and sent away,
	// less those it kept in return.
	lent int
}

func (l *freeList[T]) get() *T {
	l.ctr.Gets++
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.ctr.Hits++
		return x
	}
	return new(T)
}

func (l *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	l.free = append(l.free, x)
}

// dirList is core.DirPool for pooled objects: those waiting on one ring
// direction for its sender's next message. The zero value is ready.
type dirList[T any] struct{ free []*T }

// get returns a zeroed object for the direction's sender, whose own list is
// home.
func (d *dirList[T]) get(home *freeList[T]) *T {
	if n := len(d.free); n > 0 {
		x := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		home.ctr.Gets++
		home.ctr.Hits++
		return x
	}
	home.lent++
	return home.get()
}

// retire recycles an object that travelled on the direction: home, the
// retiring end's own list, keeps it if it replaces one that end has sent
// away; otherwise it waits on the direction.
func (d *dirList[T]) retire(home *freeList[T], x *T) {
	if home.lent > 0 {
		home.lent--
		home.put(x)
		return
	}
	var zero T
	*x = zero
	d.free = append(d.free, x)
}

// worldPools is the per-Rank recycling state (the rank's home lists).
type worldPools struct {
	buf  core.BufPool // payload snapshots, staging buffers
	pkts freeList[shmPacket]
	ops  freeList[sendOp]
	envs freeList[envelope]
	reqs freeList[Request]
}

// counters sums the object-pool hit statistics (the byte pool is reported
// separately — a byte-buffer hit is worth far more than a request hit, so
// mixing them would make the rate meaningless).
func (wp *worldPools) counters() core.PoolCounters {
	var c core.PoolCounters
	c.Add(wp.pkts.ctr)
	c.Add(wp.ops.ctr)
	c.Add(wp.envs.ctr)
	c.Add(wp.reqs.ctr)
	return c
}

// AllocMem returns n bytes of message memory from the rank's pool
// (MPI_Alloc_mem): for a body's send, receive and window buffers, and for the
// library's own temporaries. The contents are undefined — the bytes of
// whatever message, in this world or an earlier one of the process, held the
// buffer last — so write or receive into it before reading. Only the rank's
// own process may call it. Hand the memory back with FreeMem; what a body
// never frees is the collector's.
func (r *Rank) AllocMem(n int) []byte { return r.pools.buf.Get(n) }

// FreeMem retires memory from AllocMem (MPI_Free_mem) so that the library's
// snapshots and staging, the body's next size point and the next world of the
// process can have it. As in MPI, freeing a buffer that an incomplete request
// or an open window still references is the caller's bug: the next owner's
// bytes land in that transfer. Nil, a subslice and a slice some make built
// are safe to pass (a pool takes only whole buffers of a class's exact
// capacity, wherever they were born). Once any request of the rank has failed
// the buffer is left to the GC instead: a failed rendezvous receive may still
// have an RDMA write in flight toward it.
func (r *Rank) FreeMem(buf []byte) {
	if !r.reqFailed {
		r.pools.buf.Free(buf)
	}
}

// getReq returns a zeroed Request from the pool.
func (r *Rank) getReq() *Request { return r.pools.reqs.get() }

// putReq recycles a request the caller owns. Requests flagged noPool (HCA
// rendezvous sends) and failed requests (their envelopes/ops may still be
// referenced from error-path state) are left to the GC.
func (r *Rank) putReq(req *Request) {
	if req == nil || req.noPool || req.err != nil {
		return
	}
	r.pools.reqs.put(req)
}

// snapshot makes op.data a pooled copy of src. r is the op's sender.
func (r *Rank) snapshot(op *sendOp, src []byte) {
	op.data = op.dir.snaps.GetCopy(&r.pools.buf, src)
	op.owned = true
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
	d.ops.retire(&r.pools.ops, op)
}
