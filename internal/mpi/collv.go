package mpi

// The exchange collectives — allgather, alltoall, gather and scatter, with
// the variable-count ("v") family — each written once over a group: the
// world, a communicator, or a phase of a two-level collective hands its
// group to the same function. Every block of a collective buffer is placed by
// a layout. Allgather runs recursive doubling over equal blocks of a
// power-of-two group and the ring otherwise; alltoall pairs members by XOR
// over a power-of-two group and by shifts otherwise; gather and scatter are
// linear at the root. Each allgather and alltoall step is sendrecvInternal
// in the group's context. ReduceScatterBlock is here too.

// layout is where each member's block of a collective buffer lies: block i
// is buf[l.at(i):l.at(i+1)]. Without offsets the blocks are k bytes each,
// in group rank order, and nothing is allocated to say so.
type layout struct {
	k    int
	offs []int // n+1 block boundaries; nil for equal blocks
}

// at is where block i starts (and block i-1 ends).
func (l layout) at(i int) int {
	if l.offs == nil {
		return i * l.k
	}
	return l.offs[i]
}

// blocks is blocks [i, j) of buf.
func (l layout) blocks(buf []byte, i, j int) []byte { return buf[l.at(i):l.at(j)] }

// vlayout checks a v-collective's counts — one per rank, the caller's equal
// to its own block's length — and lays them out in rank order.
func (r *Rank) vlayout(what string, counts []int, mine int) layout {
	if len(counts) != r.size {
		r.p.Fatalf("%s: %d counts for %d ranks", what, len(counts), r.size)
	}
	if mine != counts[r.rank] {
		r.p.Fatalf("%s: rank %d has %d bytes, counts say %d", what, r.rank, mine, counts[r.rank])
	}
	offs := make([]int, r.size+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	return layout{offs: offs}
}

// fits aborts the job unless a collective buffer holds want bytes.
func (r *Rank) fits(what string, buf []byte, want int) {
	if len(buf) != want {
		r.p.Fatalf("%s is %d bytes, want %d", what, len(buf), want)
	}
}

// allgatherv copies mine into the caller's block of out and fills every
// other block from its owner. A caller whose block is already in place
// passes no mine.
func (r *Rank) allgatherv(g group, l layout, mine, out []byte) {
	r.fits("Allgather: out", out, l.at(g.n))
	copy(l.blocks(out, g.me, g.me+1), mine)
	if g.n == 1 {
		return
	}
	tag := g.nextTag()
	if l.offs == nil && g.n&(g.n-1) == 0 {
		// Recursive doubling: each round swaps the aligned run of blocks
		// gathered so far with the peer's, doubling it.
		first := g.me
		for mask := 1; mask < g.n; mask <<= 1 {
			peer, peerFirst := g.me^mask, first^mask
			r.sendrecvInternal(&g, tag, peer, l.blocks(out, first, first+mask), peer, l.blocks(out, peerFirst, peerFirst+mask))
			first = min(first, peerFirst)
		}
		return
	}
	// Ring: pass each block to the right n-1 times.
	right, left := (g.me+1)%g.n, (g.me-1+g.n)%g.n
	for step := 0; step < g.n-1; step++ {
		send := (g.me - step + g.n) % g.n
		recv := (send - 1 + g.n) % g.n
		r.sendrecvInternal(&g, tag, right, l.blocks(out, send, send+1), left, l.blocks(out, recv, recv+1))
	}
}

// alltoall sends block i of send (chunk bytes) to member i and receives
// member j's block into block j of recv.
func (r *Rank) alltoall(g group, send, recv []byte, chunk int) {
	r.fits("Alltoall: send", send, chunk*g.n)
	r.fits("Alltoall: recv", recv, chunk*g.n)
	tag := g.nextTag()
	l := layout{k: chunk}
	r.p.Advance(r.w.Opts.Params.MemCopy(chunk, false))
	copy(l.blocks(recv, g.me, g.me+1), l.blocks(send, g.me, g.me+1))
	pow2 := g.n&(g.n-1) == 0
	for step := 1; step < g.n; step++ {
		to, from := (g.me+step)%g.n, (g.me-step+g.n)%g.n
		if pow2 {
			to, from = g.me^step, g.me^step
		}
		r.sendrecvInternal(&g, tag, to, l.blocks(send, to, to+1), from, l.blocks(recv, from, from+1))
	}
}

// gatherv collects every member's block into root's out (linear); mine is
// the caller's block. A member with an empty block sends nothing.
func (r *Rank) gatherv(g group, root int, l layout, mine, out []byte) {
	tag := g.nextTag()
	if g.me != root {
		if len(mine) > 0 {
			r.wait(r.isendCtx(g.world(root), tag, g.ctx, mine))
		}
		return
	}
	r.fits("Gather: out", out, l.at(g.n))
	copy(l.blocks(out, root, root+1), mine)
	reqs := make([]*Request, 0, g.n-1)
	for i := 0; i < g.n; i++ {
		if b := l.blocks(out, i, i+1); i != root && len(b) > 0 {
			reqs = append(reqs, r.irecvCtx(g.world(i), tag, g.ctx, b))
		}
	}
	for _, rq := range reqs {
		r.wait(rq)
	}
}

// scatterv hands every member its block of root's all (linear); mine
// receives the caller's. A member with an empty block receives nothing.
func (r *Rank) scatterv(g group, root int, l layout, all, mine []byte) {
	tag := g.nextTag()
	if g.me != root {
		if len(mine) > 0 {
			r.wait(r.irecvCtx(g.world(root), tag, g.ctx, mine))
		}
		return
	}
	r.fits("Scatter: all", all, l.at(g.n))
	reqs := make([]*Request, 0, g.n-1)
	for i := 0; i < g.n; i++ {
		if b := l.blocks(all, i, i+1); i != root && len(b) > 0 {
			reqs = append(reqs, r.isendCtx(g.world(i), tag, g.ctx, b))
		}
	}
	copy(mine, l.blocks(all, root, root+1))
	for _, rq := range reqs {
		r.wait(rq)
	}
}

// Gatherv collects variably-sized contributions into root. counts[i] is the
// byte count rank i contributes; out on root must hold their sum, laid out
// in rank order. Every rank must pass the same counts.
func (r *Rank) Gatherv(root int, mine []byte, counts []int, out []byte) {
	r.profEnter()
	defer r.profExit("Gatherv")
	r.gatherv(r.group(), root, r.vlayout("Gatherv", counts, len(mine)), mine, out)
}

// Scatterv distributes variably-sized chunks from root; counts[i] bytes go
// to rank i. mine must be counts[rank] bytes.
func (r *Rank) Scatterv(root int, all []byte, counts []int, mine []byte) {
	r.profEnter()
	defer r.profExit("Scatterv")
	r.scatterv(r.group(), root, r.vlayout("Scatterv", counts, len(mine)), all, mine)
}

// Allgatherv concatenates variably-sized contributions on every rank.
func (r *Rank) Allgatherv(mine []byte, counts []int, out []byte) {
	r.profEnter()
	defer r.profExit("Allgatherv")
	r.allgatherv(r.group(), r.vlayout("Allgatherv", counts, len(mine)), mine, out)
}

// ReduceScatterBlock reduces equal-sized blocks across all ranks and leaves
// block i on rank i (MPI_Reduce_scatter_block): in holds size*blockLen
// bytes, out receives this rank's reduced block. Implemented as pairwise
// exchange of partial blocks (each rank reduces its own block directly).
func (r *Rank) ReduceScatterBlock(in []byte, out []byte, op ReduceOp) {
	r.profEnter()
	defer r.profExit("Reduce_scatter")
	blockLen := len(out)
	r.fits("ReduceScatterBlock: in", in, blockLen*r.size)
	g := r.group()
	tag := g.nextTag()
	copy(out, in[r.rank*blockLen:(r.rank+1)*blockLen])
	if r.size == 1 {
		return
	}
	tmp := r.AllocMem(blockLen)
	defer r.FreeMem(tmp)
	for step := 1; step < r.size; step++ {
		to, from := (r.rank+step)%r.size, (r.rank-step+r.size)%r.size
		r.sendrecvInternal(&g, tag, to, in[to*blockLen:(to+1)*blockLen], from, tmp)
		r.chargeReduce(blockLen)
		op(out, tmp)
	}
}
