package mpi

// Collectives over the point-to-point layer, with the standard MPICH/MVAPICH
// algorithm family: dissemination barrier, binomial broadcast/reduce,
// allreduce with per-call algorithm selection (coll_select.go) over recursive
// doubling, Rabenseifner, ring, and tree, recursive-doubling allgather (ring
// for non-power-of-two worlds), pairwise-exchange alltoall, linear
// gather/scatter. Locality-aware channel selection happens underneath, which
// is exactly how the paper's collective improvements arise: the intra-host
// portion of every algorithm step rides SHM/CMA instead of HCA loopback.
//
// Barrier, bcast, reduce and the allreduce algorithms are written once, as
// the steppers in machine.go. The blocking calls here — and the communicator
// (comm.go) and two-level (coll_hier.go) ones — run a stepper on their own
// stack, `for !m.step(...) {}`: a goroutine-backed rank blocks for real
// inside the stepper's wait, so each false is one wake, and the loop goes
// round. What differs between the world, a communicator and a hierarchical
// phase is the group handed to the stepper. Allgather, alltoall and
// gather/scatter, with their v-variants, are blocking-only and written once
// over a group too, in collv.go; the calls here only check, profile and hand
// over the world. Scan is world-only and blocking.

import "cmpi/internal/core"

// collCtxBit marks the collective half of a context: collective traffic is
// matched on ctx|collCtxBit so that user wildcard receives (AnySource /
// AnyTag) can never steal internal collective messages — the same
// separation real MPI implementations get from per-communicator collective
// contexts.
const collCtxBit = 0x8000

// group is who one collective call runs over: the world, a communicator, or
// the member list of a hierarchical phase. Steppers take it as a step
// argument, like root and buf, and keep none of it: a stepper is heap memory
// of a machine rank and part of every blocking call's frame, so a field it
// need not keep costs bytes per rank and per call.
type group struct {
	members []int // world rank of each group rank; nil for the world itself
	me, n   int   // the caller's group rank; the group's size
	ctx     int   // matching context of the group's collective traffic
	seq     *int  // the group's collective-call counter; nil when the caller brings the tag
	tag     int   // the caller's tag (seq == nil)
}

// world maps a group rank to the world rank.
func (g *group) world(i int) int {
	if g.members == nil {
		return i
	}
	return g.members[i]
}

// nextTag is the tag of the group's next collective call.
func (g *group) nextTag() int {
	if g.seq == nil {
		return g.tag
	}
	return mintTag(g.seq)
}

// mintTag mints a tag for one collective call from a group's call counter.
// Collective calls occur in the same order on every member, so the
// per-member counter agrees across the group; tags start at -2 to stay clear
// of AnyTag (-1) and user tags (>= 0).
func mintTag(seq *int) int {
	*seq++
	return -(*seq + 1)
}

// group is the world as a collective group.
func (r *Rank) group() group {
	return group{me: r.rank, n: r.size, ctx: collCtxBit, seq: &r.collSeq}
}

// nextCollTag mints a world collective tag.
func (r *Rank) nextCollTag() int { return mintTag(&r.collSeq) }

// Barrier blocks until all ranks arrive (dissemination algorithm).
func (r *Rank) Barrier() {
	r.profEnter()
	defer r.profExit("Barrier")
	r.barrier(r.group())
}

func (r *Rank) barrier(g group) {
	var m mbarrier
	for !m.step(r, &g) {
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
	r.bcast(r.group(), root, data)
}

// bcast broadcasts from group rank root.
func (r *Rank) bcast(g group, root int, data []byte) {
	var m mbcast
	for !m.step(r, &g, root, data) {
	}
}

// Reduce combines every rank's buf into root's buf with op (binomial tree).
// Non-root buffers are scratch and may be modified.
func (r *Rank) Reduce(root int, buf []byte, op ReduceOp) {
	r.profEnter()
	defer r.profExit("Reduce")
	r.reduce(r.group(), root, buf, op)
}

// reduce reduces into group rank root.
func (r *Rank) reduce(g group, root int, buf []byte, op ReduceOp) {
	var m mreduce
	for !m.step(r, &g, root, buf, op) {
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

// allreduce selects the algorithm and runs its stepper on this stack. It
// does not go through mallreduce, which keeps the chosen stepper behind a
// pointer (a machine rank pays for one, not all) and so would heap-allocate
// it on every call.
func (r *Rank) allreduce(buf []byte, op ReduceOp) {
	if r.size == 1 {
		return
	}
	switch algo, pof2 := r.pickAllreduce(len(buf)); algo {
	case core.AllreduceRabenseifner:
		var m mrab
		for !m.step(r, buf, op, pof2) {
		}
	case core.AllreduceRing:
		var m mring
		for !m.step(r, buf, op) {
		}
	case core.AllreduceTree:
		r.reduce(r.group(), 0, buf, op)
		r.bcast(r.group(), 0, buf)
	default:
		r.groupAllreduce(r.group(), buf, op)
	}
}

// pickAllreduce selects (and records) the algorithm of one world allreduce;
// pof2 is the largest power of two not above the world size.
func (r *Rank) pickAllreduce(n int) (algo core.AllreduceAlgo, pof2 int) {
	pof2 = floorPow2(r.size)
	algo = r.selectAllreduce(n, pof2)
	r.recordCollAlgo(algo, n)
	return algo, pof2
}

// groupAllreduce is recursive doubling over a group: the only allreduce of
// communicators and of the leaders of a two-level one.
func (r *Rank) groupAllreduce(g group, buf []byte, op ReduceOp) {
	if g.n == 1 {
		return
	}
	var m mrd
	for pof2 := floorPow2(g.n); !m.step(r, &g, buf, op, pof2); {
	}
}

// floorPow2 is the largest power of two not above n (n >= 1).
func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// Allgather concatenates every rank's mine (all equal length) into out,
// ordered by rank. out must be size*len(mine) bytes.
func (r *Rank) Allgather(mine []byte, out []byte) {
	r.profEnter()
	defer r.profExit("Allgather")
	r.fits("Allgather: out", out, len(mine)*r.size)
	if r.w.Opts.HierarchicalCollectives && r.size > 1 && r.hierAllgather(mine, out) {
		return
	}
	r.allgatherv(r.group(), layout{k: len(mine)}, mine, out)
}

// Alltoall sends the i-th chunk of send to rank i and receives rank j's
// chunk into the j-th chunk of recv. chunk is the per-destination byte
// count; send and recv are size*chunk bytes.
func (r *Rank) Alltoall(send, recv []byte, chunk int) {
	r.profEnter()
	defer r.profExit("Alltoall")
	r.alltoall(r.group(), send, recv, chunk)
}

// Gather collects every rank's mine into root's out (rank-ordered). out is
// only accessed at root.
func (r *Rank) Gather(root int, mine []byte, out []byte) {
	r.profEnter()
	defer r.profExit("Gather")
	r.gatherv(r.group(), root, layout{k: len(mine)}, mine, out)
}

// Scatter distributes root's chunks to every rank.
func (r *Rank) Scatter(root int, all []byte, mine []byte) {
	r.profEnter()
	defer r.profExit("Scatter")
	r.scatterv(r.group(), root, layout{k: len(mine)}, all, mine)
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
	tmp := r.AllocMem(len(buf))
	defer r.FreeMem(tmp)
	for mask := 1; mask < r.size; mask <<= 1 {
		var rq, sq *Request
		if r.rank-mask >= 0 {
			rq = r.irecvCtx(r.rank-mask, tag, collCtxBit, tmp)
		}
		if r.rank+mask < r.size {
			sq = r.isendCtx(r.rank+mask, tag, collCtxBit, partial)
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

// sendrecvInternal is one exchange step of a collective over g: group
// ranks dst and src, the group's context, the msr order.
func (r *Rank) sendrecvInternal(g *group, tag, dst int, sendData []byte, src int, recvBuf []byte) {
	var m msr
	for !m.step(r, g.world(dst), tag, sendData, g.world(src), tag, recvBuf, g.ctx) {
	}
}

// chargeReduce models the local arithmetic of combining n bytes.
func (r *Rank) chargeReduce(n int) {
	// ~1 cheap op per 8-byte element; fold into the compute model.
	r.Compute(float64(n) / 8 * 0.25)
}
