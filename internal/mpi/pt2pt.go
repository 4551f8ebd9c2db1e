package mpi

import (
	"cmpi/internal/core"
	"cmpi/internal/trace"
)

// Status describes a completed receive.
type Status struct {
	// Source is the sending rank.
	Source int
	// Tag is the matched tag.
	Tag int
	// Bytes is the received message size.
	Bytes int
}

// Request is a nonblocking operation handle (MPI_Request).
type Request struct {
	r      *Rank
	peer   int // send: destination; recv: source selector (AnySource ok)
	tag    int // send: tag; recv: tag selector (AnyTag ok)
	ctx    int // communicator context id (0 = MPI_COMM_WORLD)
	sbuf   []byte
	rbuf   []byte
	status Status
	env    *envelope
	err    error

	// pr is the owner's record of the request's peer: the destination of a
	// send, the matched source of a rendezvous receive (nil for self-sends
	// and for receives that never needed it).
	pr *peerRec

	isSend bool
	done   bool
	sync   bool // synchronous send (Ssend): always a rendezvous
	// released marks a handle given to Rank.Release under poolStrict.
	released bool
}

// Done reports completion without progressing the engine (see Test).
func (req *Request) Done() bool {
	req.checkHeld()
	return req.done
}

// Err reports why the request failed, or nil. Failed requests count as done
// (waits return), mirroring MPI_ERRORS_RETURN semantics where the error code
// travels with the completed operation.
func (req *Request) Err() error {
	req.checkHeld()
	return req.err
}

// checkHeld panics on a handle that Rank.Release poisoned (poolStrict only:
// otherwise a released handle is recycled, and reads as another operation).
func (req *Request) checkHeld() {
	if req.released {
		panic("mpi: Request used after Release")
	}
}

// failRequest completes req with an error so blocked waiters return. A
// pending posted receive is withdrawn from the match list.
func (r *Rank) failRequest(req *Request, cause error) {
	if req.done {
		return
	}
	req.err = cause
	req.done = true
	r.reqFailed = true
	for i, pr := range r.posted.items() {
		if pr == req {
			r.posted.removeAt(i)
			break
		}
	}
}

// envelope is the receiver-side record of one inbound message: created at
// the first packet (eager first fragment, RTS, or full HCA eager payload)
// and matched against posted receives in arrival order.
type envelope struct {
	src, tag, size int
	ctx            int
	seq            uint64
	path           core.Path
	req            *Request // posted receive once matched
	staged         []byte   // unexpected eager payload's buffer (see payload)
	received       int
	sop            *sendOp // SHM/CMA rendezvous: sender's op (buffer handle)
	msgID          uint64  // HCA rendezvous id
	complete       bool
	hca            bool
}

// matchPosted removes and returns the first posted receive matching
// (src, tag, ctx), or nil. Context ids never match wildcards: messages on
// one communicator are invisible to receives on another.
func (r *Rank) matchPosted(src, tag, ctx int) *Request {
	for i, req := range r.posted.items() {
		if req.ctx == ctx && (req.peer == AnySource || req.peer == src) && (req.tag == AnyTag || req.tag == tag) {
			r.posted.removeAt(i)
			return req
		}
	}
	return nil
}

// matchQ is a matching queue — a rank's posted receives, its unexpected
// envelopes — in arrival order: pushed at the back, searched from the front,
// removed wherever the match is. An in-order stream matches the head every
// time, so the head leaves by advancing an index, with no element moved;
// anything else closes the gap. A vacated slot is cleared either way, so the
// queue pins nothing it no longer lists. The zero value is an empty queue.
type matchQ[T any] struct {
	buf  []*T // buf[head:] is the queue
	head int
}

// items is the queue, oldest first; valid until the next push or removeAt.
func (q *matchQ[T]) items() []*T { return q.buf[q.head:] }

func (q *matchQ[T]) len() int { return len(q.buf) - q.head }

func (q *matchQ[T]) push(x *T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Full behind a head that has walked: take the room in front rather
		// than grow, or a queue that never runs empty would grow for ever.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, x)
}

// removeAt deletes items()[i], keeping the order of the rest.
func (q *matchQ[T]) removeAt(i int) {
	if i == 0 {
		q.buf[q.head] = nil
		q.head++
		if q.head == len(q.buf) {
			q.buf, q.head = q.buf[:0], 0
		}
		return
	}
	i += q.head
	last := len(q.buf) - 1
	copy(q.buf[i:], q.buf[i+1:])
	q.buf[last] = nil
	q.buf = q.buf[:last]
}

// matchUnexpected removes and returns the first unexpected envelope
// matching the receive selectors, or nil.
func (r *Rank) matchUnexpected(src, tag, ctx int) *envelope {
	for i, env := range r.unexpected.items() {
		if env.ctx == ctx && (src == AnySource || env.src == src) && (tag == AnyTag || env.tag == tag) {
			r.unexpected.removeAt(i)
			return env
		}
	}
	return nil
}

// peekUnexpected is matchUnexpected without removal (for Probe).
func (r *Rank) peekUnexpected(src, tag, ctx int) *envelope {
	for _, env := range r.unexpected.items() {
		if env.ctx == ctx && (src == AnySource || env.src == src) && (tag == AnyTag || env.tag == tag) {
			return env
		}
	}
	return nil
}

// bindEnvelope attaches a matched envelope to its posted receive and starts
// (or finishes) the data movement appropriate for the message's path.
func (r *Rank) bindEnvelope(env *envelope, req *Request) {
	if env.size > len(req.rbuf) {
		r.p.Fatalf("MPI truncation: %d-byte message from rank %d (tag %d) into %d-byte buffer",
			env.size, env.src, env.tag, len(req.rbuf))
	}
	req.status = Status{Source: env.src, Tag: env.tag, Bytes: env.size}
	env.req = req
	req.env = env
	switch env.path {
	case core.PathCMARndv, core.PathSHMRndv, core.PathHCARndv:
		// Rendezvous pulls data from (or signals) the sender. env.src is
		// concrete even for AnySource receives.
		req.pr = r.peer(env.src)
		r.startRndv(env, req)
	default: // eager (SHM or HCA): copy whatever is already staged
		if env.received > 0 {
			if env.hca {
				r.p.Advance(r.w.Opts.Params.EagerRecvCopy(env.received))
			} else {
				r.p.Advance(r.w.Opts.Params.MemCopy(env.received, r.crossSocket(env.src)))
			}
			copy(req.rbuf, env.payload())
		}
		if env.received >= env.size {
			r.completeRecv(req, env)
		}
	}
}

// startRndv makes the receiver's first move of a matched rendezvous: pull
// the payload (CMA) or release the sender (SHM/HCA clear-to-send).
func (r *Rank) startRndv(env *envelope, req *Request) {
	switch env.path {
	case core.PathCMARndv:
		r.performCMARead(env, req)
	case core.PathSHMRndv:
		r.sendCTS(env, req.pr)
	case core.PathHCARndv:
		r.hcaSendCTS(env, req)
	}
}

// completeRecv finishes a receive and retires its envelope (staging buffer
// included) to the pools.
func (r *Rank) completeRecv(req *Request, env *envelope) {
	if req.done {
		// A zero-size HCA eager message completes inside bindEnvelope and
		// again in handleHCAMessage; the second call must not double-free.
		return
	}
	req.status = Status{Source: env.src, Tag: env.tag, Bytes: env.size}
	req.done = true
	r.trace(trace.OpRecv, trace.PathOf(env.path), env.src, env.tag, env.ctx, env.size, env.seq)
	r.dropStaged(env)
	req.env = nil
	r.pools.envs.Put(env)
}

// payload is what has arrived of an eager message: staged, past the wire
// header where staged is the HCA wire buffer the message came in.
func (env *envelope) payload() []byte {
	if env.hca && env.staged != nil {
		return env.staged[hcaHdrLen:][:env.received]
	}
	return env.staged[:env.received]
}

// dropStaged hands back the envelope's staging buffer: an HCA wire buffer to
// the QP it came by, as handleCQE does for a message that was expected, or
// a buffer of r's pool to the pool.
func (r *Rank) dropStaged(env *envelope) {
	if env.hca && env.staged != nil {
		ps := r.peer(env.src).ps
		ps.qps[ps.side(r.rank)].Recycle(env.staged)
	} else {
		r.pools.buf.Put(env.staged)
	}
	env.staged = nil
}

// completeSend finishes a send (buffer reusable).
func (r *Rank) completeSend(req *Request) {
	req.done = true
}

// selfSend delivers a message a rank addresses to itself via one local copy.
func (r *Rank) selfSend(req *Request) {
	env := r.pools.envs.Get()
	env.src, env.tag, env.size = r.rank, req.tag, len(req.sbuf)
	env.ctx = req.ctx
	env.path = core.PathSHMEager
	env.seq = r.selfSeq
	r.selfSeq++
	r.p.Advance(r.w.Opts.Params.MemCopy(len(req.sbuf), false))
	env.staged = r.pools.buf.GetCopy(req.sbuf)
	env.received = env.size
	env.complete = true
	if posted := r.matchPosted(r.rank, req.tag, req.ctx); posted != nil {
		r.bindEnvelope(env, posted)
	} else {
		r.unexpected.push(env)
	}
	r.completeSend(req)
}

// Isend starts a nonblocking send of data to rank dst with the given tag.
// The buffer must not be modified until the request completes.
func (r *Rank) Isend(dst, tag int, data []byte) *Request {
	r.profEnter()
	defer r.profExit("Isend")
	return r.isendCtx(dst, tag, 0, data, false)
}

// isendCtx is the one send path, on an arbitrary communicator context:
// validate, build the request, take the fast paths (self-send, dead
// destination), select the channel, emit the send (sync: ssend) trace record
// and enter the channel's protocol. A synchronous send (MPI_Ssend) takes the
// rendezvous path of the pair's channel, which completes only once the
// receive has matched.
func (r *Rank) isendCtx(dst, tag, ctx int, data []byte, sync bool) *Request {
	call, op := "Isend", trace.OpSend
	if sync {
		call, op = "Ssend", trace.OpSsend
	}
	if dst < 0 || dst >= r.size {
		r.p.Fatalf("%s to rank %d outside world of size %d", call, dst, r.size)
	}
	req := r.getReq()
	req.r, req.isSend, req.peer, req.tag, req.ctx, req.sbuf, req.sync = r, true, dst, tag, ctx, data, sync
	if dst == r.rank {
		r.trace(op, trace.PathSelf, req.peer, tag, ctx, len(data), r.selfSeq)
		r.selfSend(req)
		return req
	}
	if err := r.lostErr(dst); err != nil {
		// The destination crashed (real messages may race the failure notice;
		// the simulation observes crashes at their virtual instant) or the
		// HCA channel to it broke: fail fast instead of posting into it.
		r.failRequest(req, err)
		return req
	}
	pr := r.peer(dst)
	req.pr = pr
	path := r.pathFor(pr, len(data), sync)
	r.trace(op, trace.PathOf(path), dst, tag, ctx, len(data), pr.sendSeq)
	r.startSend(req, path)
	return req
}

// startSend enters the protocol of the path a send was given.
func (r *Rank) startSend(req *Request, path core.Path) {
	switch path {
	case core.PathSHMEager, core.PathSHMRndv, core.PathCMARndv:
		r.enqueueShmSend(req, path)
	case core.PathHCAEager:
		r.hcaEagerSend(req)
	case core.PathHCARndv:
		r.hcaRndvSend(req)
	}
}

// Irecv starts a nonblocking receive into buf. src may be AnySource and tag
// may be AnyTag.
func (r *Rank) Irecv(src, tag int, buf []byte) *Request {
	r.profEnter()
	defer r.profExit("Irecv")
	return r.irecvCtx(src, tag, 0, buf)
}

// irecvCtx posts a receive on an arbitrary communicator context.
func (r *Rank) irecvCtx(src, tag, ctx int, buf []byte) *Request {
	r.checkSource("Irecv", src)
	req := r.getReq()
	req.r, req.peer, req.tag, req.ctx, req.rbuf = r, src, tag, ctx, buf
	if env := r.matchUnexpected(src, tag, ctx); env != nil {
		r.bindEnvelope(env, req)
	} else if err := r.lostErr(src); err != nil {
		// Already-delivered messages (unexpected queue) matched above; nothing
		// more can ever arrive from a lost peer.
		r.failRequest(req, err)
	} else {
		r.posted.push(req)
	}
	return req
}

// checkSource aborts a receive-side call whose source is neither AnySource
// nor a rank of the world.
func (r *Rank) checkSource(call string, src int) {
	if src != AnySource && (src < 0 || src >= r.size) {
		r.p.Fatalf("%s from rank %d outside world of size %d", call, src, r.size)
	}
}

// Wait blocks until the request completes and returns its status.
func (r *Rank) Wait(req *Request) Status {
	r.profEnter()
	defer r.profExit("Wait")
	return r.wait(req)
}

func (r *Rank) wait(req *Request) Status {
	r.waitUntil(func() bool { return req.done })
	return req.status
}

// WaitAll blocks until every request completes.
func (r *Rank) WaitAll(reqs ...*Request) {
	r.profEnter()
	defer r.profExit("Waitall")
	// A request stays done, so each wake resumes at the first one that was not.
	next := 0
	r.waitUntil(func() bool {
		for next < len(reqs) && reqs[next].done {
			next++
		}
		return next == len(reqs)
	})
}

// Release gives completed requests back to the rank for reuse
// (MPI_Request_free): for loops that post a window of Isend/Irecv, wait for
// it and post the next, which otherwise allocate every handle anew. A
// released handle belongs to whichever operation takes it next, so the
// caller must not use it again in any way; the entries of reqs are set to nil
// to say so. A Status that Wait returned earlier is a copy and stays valid.
// Releasing a request that has not completed aborts the job. Nil entries are
// skipped; failed requests and HCA-rendezvous sends are left to the GC (see
// pool.go). Wait and WaitAll do not release: callers may read a handle after
// waiting on it.
func (r *Rank) Release(reqs ...*Request) {
	for i, req := range reqs {
		if req == nil {
			continue
		}
		if !req.done {
			r.p.Fatalf("MPI_Request_free: request (peer %d, tag %d) has not completed", req.peer, req.tag)
		}
		reqs[i] = nil
		if core.PoolStrict() {
			req.released = true
			continue
		}
		r.putReq(req)
	}
}

// WaitAny blocks until at least one request completes and returns its
// index and status (MPI_Waitany).
func (r *Rank) WaitAny(reqs ...*Request) (int, Status) {
	r.profEnter()
	defer r.profExit("Waitany")
	idx := -1
	r.waitUntil(func() bool {
		for i, req := range reqs {
			if req.done {
				idx = i
				return true
			}
		}
		return false
	})
	return idx, reqs[idx].status
}

// TestAll makes one pass of the wait loop (pollStep) and reports whether
// every request has completed (MPI_Testall).
func (r *Rank) TestAll(reqs ...*Request) bool {
	r.profEnter()
	defer r.profExit("Testall")
	return r.pollStep(func() bool {
		for _, req := range reqs {
			if !req.done {
				return false
			}
		}
		return true
	})
}

// TestAny makes one pass of the wait loop (pollStep) and returns the index of
// a completed request, or -1 (MPI_Testany).
func (r *Rank) TestAny(reqs ...*Request) (int, Status, bool) {
	r.profEnter()
	defer r.profExit("Testany")
	idx := -1
	r.pollStep(func() bool {
		for i, req := range reqs {
			if req.done {
				idx = i
				return true
			}
		}
		return false
	})
	if idx < 0 {
		return -1, Status{}, false
	}
	return idx, reqs[idx].status, true
}

// Test makes one pass of the wait loop (pollStep) and reports whether the
// request has completed (MPI_Test).
func (r *Rank) Test(req *Request) (Status, bool) {
	r.profEnter()
	defer r.profExit("Test")
	r.pollStep(func() bool { return req.done })
	return req.status, req.done
}

// Send is a blocking send.
func (r *Rank) Send(dst, tag int, data []byte) {
	r.profEnter()
	defer r.profExit("Send")
	r.send(dst, tag, 0, data, false)
}

// Ssend is a blocking synchronous send (MPI_Ssend): it completes only after
// the receiver has matched the message. The send takes the rendezvous path
// of the pair's channel regardless of message size — rendezvous completion
// inherently requires a matched receive on every channel.
func (r *Rank) Ssend(dst, tag int, data []byte) {
	r.profEnter()
	defer r.profExit("Ssend")
	if dst == r.rank {
		r.p.Fatalf("Ssend to self would deadlock (no receive can match within the call)")
	}
	r.send(dst, tag, 0, data, true)
}

// Recv is a blocking receive; it returns the matched status.
func (r *Rank) Recv(src, tag int, buf []byte) Status {
	r.profEnter()
	defer r.profExit("Recv")
	return r.recv(src, tag, 0, buf)
}

// Sendrecv performs a blocking combined send and receive (deadlock-free).
func (r *Rank) Sendrecv(dst, sendTag int, sendData []byte, src, recvTag int, recvBuf []byte) Status {
	r.profEnter()
	defer r.profExit("Sendrecv")
	return r.sendrecv(dst, sendTag, sendData, src, recvTag, recvBuf, 0)
}

// send, recv and sendrecv are the blocking point-to-point calls of the world
// and of every communicator, on context ctx: each starts its requests, waits
// and gives them back to the pool.
func (r *Rank) send(dst, tag, ctx int, data []byte, sync bool) {
	req := r.isendCtx(dst, tag, ctx, data, sync)
	r.wait(req)
	r.putReq(req)
}

func (r *Rank) recv(src, tag, ctx int, buf []byte) Status {
	req := r.irecvCtx(src, tag, ctx, buf)
	st := r.wait(req)
	r.putReq(req)
	return st
}

func (r *Rank) sendrecv(dst, sendTag int, sendData []byte, src, recvTag int, recvBuf []byte, ctx int) Status {
	rq := r.irecvCtx(src, recvTag, ctx, recvBuf)
	sq := r.isendCtx(dst, sendTag, ctx, sendData, false)
	st := r.wait(rq)
	r.wait(sq)
	r.putReq(rq)
	r.putReq(sq)
	return st
}

// PersistentRequest is a reusable communication specification
// (MPI_Send_init / MPI_Recv_init). Start launches one instance; the
// returned Request is waited on as usual.
type PersistentRequest struct {
	r      *Rank
	isSend bool
	peer   int
	tag    int
	buf    []byte
}

// SendInit creates a persistent send specification; the buffer is read at
// each Start.
func (r *Rank) SendInit(dst, tag int, data []byte) *PersistentRequest {
	return &PersistentRequest{r: r, isSend: true, peer: dst, tag: tag, buf: data}
}

// RecvInit creates a persistent receive specification.
func (r *Rank) RecvInit(src, tag int, buf []byte) *PersistentRequest {
	return &PersistentRequest{r: r, peer: src, tag: tag, buf: buf}
}

// Start launches one instance of the persistent operation.
func (pr *PersistentRequest) Start() *Request {
	pr.r.profEnter()
	defer pr.r.profExit("Start")
	if pr.isSend {
		return pr.r.isendCtx(pr.peer, pr.tag, 0, pr.buf, false)
	}
	return pr.r.irecvCtx(pr.peer, pr.tag, 0, pr.buf)
}

// Iprobe reports whether a matching message is available without receiving
// it, after one pass of the wait loop (pollStep).
func (r *Rank) Iprobe(src, tag int) (Status, bool) {
	r.profEnter()
	defer r.profExit("Iprobe")
	r.checkSource("Iprobe", src)
	var env *envelope
	if !r.pollStep(func() bool {
		env = r.peekUnexpected(src, tag, 0)
		return env != nil
	}) {
		return Status{}, false
	}
	return Status{Source: env.src, Tag: env.tag, Bytes: env.size}, true
}

// Probe blocks until a matching message is available and returns its
// envelope information.
func (r *Rank) Probe(src, tag int) Status {
	r.profEnter()
	defer r.profExit("Probe")
	r.checkSource("Probe", src)
	var env *envelope
	r.waitUntil(func() bool {
		env = r.peekUnexpected(src, tag, 0)
		return env != nil
	})
	return Status{Source: env.src, Tag: env.tag, Bytes: env.size}
}
