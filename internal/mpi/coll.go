package mpi

// Collectives, implemented over the point-to-point layer with the standard
// MPICH/MVAPICH algorithm family: dissemination barrier, binomial
// broadcast/reduce, allreduce with per-call algorithm selection
// (coll_select.go) over recursive doubling, Rabenseifner, ring, and tree,
// recursive-doubling allgather (ring for non-power-of-two worlds), and
// pairwise-exchange alltoall. Locality-aware channel selection happens
// underneath, which is exactly how the paper's collective improvements
// arise: the intra-host portion of every algorithm step rides SHM/CMA
// instead of HCA loopback.

import "cmpi/internal/core"

// collCtxBit marks the collective half of a context: collective traffic is
// matched on ctx|collCtxBit so that user wildcard receives (AnySource /
// AnyTag) can never steal internal collective messages — the same
// separation real MPI implementations get from per-communicator collective
// contexts.
const collCtxBit = 0x8000

// nextCollTag mints a tag for one collective call. Collective calls occur
// in the same order on every rank, so the per-rank counter agrees globally;
// tags start at -2 to stay clear of AnyTag (-1) and user tags (>= 0).
func (r *Rank) nextCollTag() int {
	r.collSeq++
	return -(r.collSeq + 1)
}

// csend/crecv are collective-context point-to-point helpers.
func (r *Rank) csend(dst, tag int, data []byte) *Request {
	return r.isendCtx(dst, tag, collCtxBit, data)
}

func (r *Rank) crecv(src, tag int, buf []byte) *Request {
	return r.irecvCtx(src, tag, collCtxBit, buf)
}

// Barrier blocks until all ranks arrive (dissemination algorithm).
func (r *Rank) Barrier() {
	r.profEnter()
	defer r.profExit("Barrier")
	r.barrier()
}

func (r *Rank) barrier() {
	tag := r.nextCollTag()
	var empty []byte
	for k := 1; k < r.size; k <<= 1 {
		dst := (r.rank + k) % r.size
		src := (r.rank - k + r.size) % r.size
		rq := r.crecv(src, tag, nil)
		r.wait(r.csend(dst, tag, empty))
		r.wait(rq)
	}
}

// Bcast broadcasts root's data to every rank (binomial tree). All ranks
// must pass buffers of equal length.
func (r *Rank) Bcast(root int, data []byte) {
	r.profEnter()
	defer r.profExit("Bcast")
	if r.w.Opts.HierarchicalCollectives && r.size > 1 {
		r.hierBcast(root, data)
		return
	}
	r.bcast(root, data)
}

func (r *Rank) bcast(root int, data []byte) {
	if r.size == 1 {
		return
	}
	tag := r.nextCollTag()
	vrank := (r.rank - root + r.size) % r.size
	abs := func(v int) int { return (v + root) % r.size }

	// Walk up to this rank's lowest set bit: that is the level at which it
	// receives from its parent; the root never receives.
	mask := 1
	for mask < r.size {
		if vrank&mask != 0 {
			r.wait(r.crecv(abs(vrank-mask), tag, data))
			break
		}
		mask <<= 1
	}
	// Forward to children at every level below.
	mask >>= 1
	for mask > 0 {
		if vrank+mask < r.size {
			r.wait(r.csend(abs(vrank+mask), tag, data))
		}
		mask >>= 1
	}
}

// Reduce combines every rank's buf into root's buf with op (binomial tree).
// Non-root buffers are scratch and may be modified.
func (r *Rank) Reduce(root int, buf []byte, op ReduceOp) {
	r.profEnter()
	defer r.profExit("Reduce")
	r.reduce(root, buf, op)
}

func (r *Rank) reduce(root int, buf []byte, op ReduceOp) {
	if r.size == 1 {
		return
	}
	tag := r.nextCollTag()
	vrank := (r.rank - root + r.size) % r.size
	abs := func(v int) int { return (v + root) % r.size }
	tmp := r.scratch(len(buf))
	defer r.putScratch(tmp)
	for mask := 1; mask < r.size; mask <<= 1 {
		if vrank&mask != 0 {
			r.wait(r.csend(abs(vrank-mask), tag, buf))
			return
		}
		if vrank+mask < r.size {
			r.wait(r.crecv(abs(vrank+mask), tag, tmp))
			r.chargeReduce(len(buf))
			op(buf, tmp)
		}
	}
}

// Allreduce combines buf across all ranks, leaving the result everywhere.
// The algorithm — recursive doubling, Rabenseifner, ring, or tree — is
// chosen per call by the selector in coll_select.go (forceable via
// Tunables.AllreduceAlgo / MV2_ALLREDUCE_ALGO).
func (r *Rank) Allreduce(buf []byte, op ReduceOp) {
	r.profEnter()
	defer r.profExit("Allreduce")
	if r.w.Opts.HierarchicalCollectives && r.size > 1 {
		r.hierAllreduce(buf, op)
		return
	}
	r.allreduce(buf, op)
}

func (r *Rank) allreduce(buf []byte, op ReduceOp) {
	if r.size == 1 {
		return
	}
	pof2 := 1
	for pof2*2 <= r.size {
		pof2 *= 2
	}
	algo := r.selectAllreduce(len(buf), pof2)
	r.recordCollAlgo(algo, len(buf))
	switch algo {
	case core.AllreduceRabenseifner:
		r.allreduceRab(buf, op, pof2)
	case core.AllreduceRing:
		r.allreduceRing(buf, op)
	case core.AllreduceTree:
		r.allreduceTree(buf, op)
	default:
		r.allreduceRD(buf, op, pof2)
	}
}

// allreduceRD is recursive doubling: log2(P) full-buffer exchanges, with
// the standard fold for non-power-of-two worlds. Latency-optimal; the
// selector's choice for small buffers.
func (r *Rank) allreduceRD(buf []byte, op ReduceOp, pof2 int) {
	tag := r.nextCollTag()
	rem := r.size - pof2
	tmp := r.scratch(len(buf))
	defer r.putScratch(tmp)

	// Fold the surplus ranks into the power-of-two group.
	newRank := -1
	switch {
	case r.rank < 2*rem && r.rank%2 == 0:
		r.wait(r.csend(r.rank+1, tag, buf))
	case r.rank < 2*rem:
		r.wait(r.crecv(r.rank-1, tag, tmp))
		r.chargeReduce(len(buf))
		op(buf, tmp)
		newRank = r.rank / 2
	default:
		newRank = r.rank - rem
	}

	if newRank >= 0 {
		toAbs := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}
		for mask := 1; mask < pof2; mask <<= 1 {
			peer := toAbs(newRank ^ mask)
			r.sendrecvInternal(peer, tag, buf, peer, tag, tmp)
			r.chargeReduce(len(buf))
			op(buf, tmp)
		}
	}

	// Hand the result back to the folded ranks.
	if r.rank < 2*rem {
		if r.rank%2 == 0 {
			r.wait(r.crecv(r.rank+1, tag, buf))
		} else {
			r.wait(r.csend(r.rank-1, tag, buf))
		}
	}
}

// allreduceRab is Rabenseifner's algorithm: fold surplus ranks into the
// power-of-two group, reduce-scatter by recursive halving, allgather by
// recursive doubling, unfold. Bandwidth-optimal for large buffers.
func (r *Rank) allreduceRab(buf []byte, op ReduceOp, pof2 int) {
	tag := r.nextCollTag()
	tagRS := r.nextCollTag()
	tagAG := r.nextCollTag()
	rem := r.size - pof2
	tmp := r.scratch(len(buf))
	defer r.putScratch(tmp)

	newRank := -1
	switch {
	case r.rank < 2*rem && r.rank%2 == 0:
		r.wait(r.csend(r.rank+1, tag, buf))
	case r.rank < 2*rem:
		r.wait(r.crecv(r.rank-1, tag, tmp))
		r.chargeReduce(len(buf))
		op(buf, tmp)
		newRank = r.rank / 2
	default:
		newRank = r.rank - rem
	}

	if newRank >= 0 {
		toAbs := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}
		// Reduce-scatter by recursive halving: my owned region [lo, hi).
		lo, hi := 0, len(buf)
		for mask := pof2 / 2; mask > 0; mask >>= 1 {
			peer := toAbs(newRank ^ mask)
			mid := lo + (hi-lo)/2
			var sendLo, sendHi, keepLo, keepHi int
			if newRank&mask == 0 {
				keepLo, keepHi, sendLo, sendHi = lo, mid, mid, hi
			} else {
				keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
			}
			rq := r.crecv(peer, tagRS, tmp[keepLo:keepHi])
			r.wait(r.csend(peer, tagRS, buf[sendLo:sendHi]))
			r.wait(rq)
			r.chargeReduce(keepHi - keepLo)
			op(buf[keepLo:keepHi], tmp[keepLo:keepHi])
			lo, hi = keepLo, keepHi
		}
		// Allgather by recursive doubling: regions merge back up.
		for mask := 1; mask < pof2; mask <<= 1 {
			peer := toAbs(newRank ^ mask)
			span := hi - lo
			var peerLo, peerHi int
			if newRank&mask == 0 {
				peerLo, peerHi = lo+span, hi+span
			} else {
				peerLo, peerHi = lo-span, hi-span
			}
			rq := r.crecv(peer, tagAG, buf[peerLo:peerHi])
			r.wait(r.csend(peer, tagAG, buf[lo:hi]))
			r.wait(rq)
			if peerLo < lo {
				lo = peerLo
			} else {
				hi = peerHi
			}
		}
	}

	if r.rank < 2*rem {
		if r.rank%2 == 0 {
			r.wait(r.crecv(r.rank+1, tag, buf))
		} else {
			r.wait(r.csend(r.rank-1, tag, buf))
		}
	}
}

// allreduceRing is the reduce-scatter + allgather ring used by data-parallel
// training frameworks: P-1 steps passing reduced partial chunks to the right
// neighbor, then P-1 steps circulating the finished chunks. Every transfer
// is nearest-neighbor, so on a co-resident job each step stays on the
// SHM/CMA channels between adjacent ranks. Requires len(buf)%8 == 0 (chunk
// boundaries stay element-aligned); ranks beyond the element count simply
// own empty chunks.
func (r *Rank) allreduceRing(buf []byte, op ReduceOp) {
	tagRS := r.nextCollTag()
	tagAG := r.nextCollTag()
	n := r.size
	nel := len(buf) / 8
	// Element-aligned chunk boundaries: chunk i is buf[off(i):off(i+1)].
	off := func(i int) int { return i * nel / n * 8 }
	chunk := func(i int) []byte { return buf[off(i):off(i+1)] }
	right := (r.rank + 1) % n
	left := (r.rank - 1 + n) % n
	// A chunk spans floor((i+1)·nel/n) - floor(i·nel/n) <= ceil(nel/n)
	// elements; size the receive scratch for the worst case.
	tmp := r.scratch((nel + n - 1) / n * 8)
	defer r.putScratch(tmp)

	// Reduce-scatter: at step s, send chunk (rank-s) and receive chunk
	// (rank-s-1), reducing it into buf. After n-1 steps this rank holds the
	// fully reduced chunk (rank+1).
	for s := 0; s < n-1; s++ {
		sendIdx := (r.rank - s + n) % n
		recvIdx := (r.rank - s - 1 + n) % n
		rc := chunk(recvIdx)
		r.sendrecvInternal(right, tagRS, chunk(sendIdx), left, tagRS, tmp[:len(rc)])
		if len(rc) > 0 {
			r.chargeReduce(len(rc))
			op(rc, tmp[:len(rc)])
		}
	}
	// Allgather: circulate the finished chunks, starting from (rank+1).
	for s := 0; s < n-1; s++ {
		sendIdx := (r.rank + 1 - s + n) % n
		recvIdx := (r.rank - s + n) % n
		r.sendrecvInternal(right, tagAG, chunk(sendIdx), left, tagAG, chunk(recvIdx))
	}
}

// allreduceTree is a binomial reduce to rank 0 followed by a binomial
// broadcast: 2·log2(P) rounds, each moving the whole buffer. Dominated by
// recursive doubling in this cost model, so the selector never picks it;
// it exists as a forced comparison baseline (MV2_ALLREDUCE_ALGO=tree).
func (r *Rank) allreduceTree(buf []byte, op ReduceOp) {
	r.reduce(0, buf, op)
	r.bcast(0, buf)
}

// Allgather concatenates every rank's mine (all equal length) into out,
// ordered by rank. out must be size*len(mine) bytes. Power-of-two worlds
// use recursive doubling; others use the ring algorithm.
func (r *Rank) Allgather(mine []byte, out []byte) {
	r.profEnter()
	defer r.profExit("Allgather")
	k := len(mine)
	if len(out) != k*r.size {
		r.p.Fatalf("Allgather: out is %d bytes, want %d", len(out), k*r.size)
	}
	if r.w.Opts.HierarchicalCollectives && r.size > 1 {
		if r.hierAllgather(mine, out) {
			return
		}
	}
	copy(out[r.rank*k:], mine)
	if r.size == 1 {
		return
	}
	tag := r.nextCollTag()
	if r.size&(r.size-1) == 0 {
		// Recursive doubling over aligned block regions.
		myFirst := r.rank
		blocks := 1
		for mask := 1; mask < r.size; mask <<= 1 {
			peer := r.rank ^ mask
			peerFirst := myFirst ^ mask
			r.sendrecvInternal(peer, tag,
				out[myFirst*k:(myFirst+blocks)*k],
				peer, tag,
				out[peerFirst*k:(peerFirst+blocks)*k])
			if peerFirst < myFirst {
				myFirst = peerFirst
			}
			blocks *= 2
		}
		return
	}
	// Ring: pass blocks around size-1 times.
	right := (r.rank + 1) % r.size
	left := (r.rank - 1 + r.size) % r.size
	for step := 0; step < r.size-1; step++ {
		sendBlock := (r.rank - step + r.size) % r.size
		recvBlock := (r.rank - step - 1 + r.size) % r.size
		r.sendrecvInternal(right, tag,
			out[sendBlock*k:(sendBlock+1)*k],
			left, tag,
			out[recvBlock*k:(recvBlock+1)*k])
	}
}

// Alltoall sends the i-th chunk of send to rank i and receives rank j's
// chunk into the j-th chunk of recv (pairwise exchange). chunk is the
// per-destination byte count; send and recv are size*chunk bytes.
func (r *Rank) Alltoall(send, recv []byte, chunk int) {
	r.profEnter()
	defer r.profExit("Alltoall")
	if len(send) != chunk*r.size || len(recv) != chunk*r.size {
		r.p.Fatalf("Alltoall: buffers %d/%d bytes, want %d", len(send), len(recv), chunk*r.size)
	}
	tag := r.nextCollTag()
	// Self block: local copy.
	r.p.Advance(r.w.Opts.Params.MemCopy(chunk, false))
	copy(recv[r.rank*chunk:], send[r.rank*chunk:(r.rank+1)*chunk])
	pow2 := r.size&(r.size-1) == 0
	for step := 1; step < r.size; step++ {
		var sendTo, recvFrom int
		if pow2 {
			sendTo = r.rank ^ step
			recvFrom = sendTo
		} else {
			sendTo = (r.rank + step) % r.size
			recvFrom = (r.rank - step + r.size) % r.size
		}
		r.sendrecvInternal(sendTo, tag,
			send[sendTo*chunk:(sendTo+1)*chunk],
			recvFrom, tag,
			recv[recvFrom*chunk:(recvFrom+1)*chunk])
	}
}

// Gather collects every rank's mine into root's out (rank-ordered, linear
// algorithm). out is only accessed at root.
func (r *Rank) Gather(root int, mine []byte, out []byte) {
	r.profEnter()
	defer r.profExit("Gather")
	tag := r.nextCollTag()
	k := len(mine)
	if r.rank != root {
		r.wait(r.csend(root, tag, mine))
		return
	}
	if len(out) != k*r.size {
		r.p.Fatalf("Gather: out is %d bytes, want %d", len(out), k*r.size)
	}
	copy(out[root*k:], mine)
	reqs := make([]*Request, 0, r.size-1)
	for src := 0; src < r.size; src++ {
		if src == root {
			continue
		}
		reqs = append(reqs, r.crecv(src, tag, out[src*k:(src+1)*k]))
	}
	for _, rq := range reqs {
		r.wait(rq)
	}
}

// Scatter distributes root's chunks to every rank (linear algorithm).
func (r *Rank) Scatter(root int, all []byte, mine []byte) {
	r.profEnter()
	defer r.profExit("Scatter")
	tag := r.nextCollTag()
	k := len(mine)
	if r.rank != root {
		r.wait(r.crecv(root, tag, mine))
		return
	}
	if len(all) != k*r.size {
		r.p.Fatalf("Scatter: all is %d bytes, want %d", len(all), k*r.size)
	}
	reqs := make([]*Request, 0, r.size-1)
	for dst := 0; dst < r.size; dst++ {
		if dst == root {
			continue
		}
		reqs = append(reqs, r.csend(dst, tag, all[dst*k:(dst+1)*k]))
	}
	copy(mine, all[root*k:(root+1)*k])
	for _, rq := range reqs {
		r.wait(rq)
	}
}

// Scan computes the inclusive prefix reduction: after the call, buf on rank
// i holds op over the buffers of ranks 0..i (MPI_Scan).
func (r *Rank) Scan(buf []byte, op ReduceOp) {
	r.profEnter()
	defer r.profExit("Scan")
	if r.size == 1 {
		return
	}
	tag := r.nextCollTag()
	// partial accumulates the full contribution of ranks [rank-2^k+1, rank]
	// for forwarding; buf accumulates the prefix result.
	partial := append([]byte(nil), buf...)
	tmp := r.scratch(len(buf))
	defer r.putScratch(tmp)
	for mask := 1; mask < r.size; mask <<= 1 {
		var rq, sq *Request
		if r.rank-mask >= 0 {
			rq = r.crecv(r.rank-mask, tag, tmp)
		}
		if r.rank+mask < r.size {
			sq = r.csend(r.rank+mask, tag, partial)
		}
		if rq != nil {
			r.wait(rq)
			r.chargeReduce(2 * len(buf))
			op(buf, tmp)
			// partial must also absorb the received contribution before the
			// next forwarding round; make a fresh copy so the in-flight send
			// buffer is never mutated.
			next := append([]byte(nil), partial...)
			op(next, tmp)
			if sq != nil {
				r.wait(sq)
			}
			partial = next
		} else if sq != nil {
			r.wait(sq)
		}
	}
}

// sendrecvInternal is Sendrecv without profiling brackets, for collectives.
func (r *Rank) sendrecvInternal(dst, sendTag int, sendData []byte, src, recvTag int, recvBuf []byte) {
	rq := r.crecv(src, recvTag, recvBuf)
	sq := r.csend(dst, sendTag, sendData)
	r.wait(rq)
	r.wait(sq)
	r.putReq(rq)
	r.putReq(sq)
}

// scratch returns an n-byte receive buffer for the duration of a collective,
// from the rank's pool; its contents are undefined (every user receives into
// it before reading). Hand it back with putScratch when the collective
// returns.
func (r *Rank) scratch(n int) []byte { return r.pools.buf.Get(n) }

// putScratch retires a collective's scratch buffer. Once any request of the
// rank has failed the buffer is left to the GC instead: a failed rendezvous
// receive may still have an RDMA write in flight toward it.
func (r *Rank) putScratch(buf []byte) {
	if !r.reqFailed {
		r.pools.buf.Put(buf)
	}
}

// chargeReduce models the local arithmetic of combining n bytes.
func (r *Rank) chargeReduce(n int) {
	// ~1 cheap op per 8-byte element; fold into the compute model.
	r.Compute(float64(n) / 8 * 0.25)
}
