package mpi

import "sort"

// Comm is a communicator: an ordered subset of world ranks with a private
// matching context, created collectively with Split (MPI_Comm_split
// semantics). Point-to-point and collective operations on a Comm address
// peers by *communicator-local* rank and never match traffic from other
// communicators.
//
// Context management: context ids are minted through a world counter; a
// Split agrees on the new id with an allreduce over the parent communicator,
// which guarantees distinct ids for communicators that share any member.
// Disjoint communicators may reuse an id, which is harmless because their
// member sets cannot exchange messages under it.
type Comm struct {
	r       *Rank
	ctx     int
	members []int // world ranks, in communicator rank order
	myIdx   int
	collSeq int
}

// worldCtx is the reserved context of the world communicator returned by
// CommWorld. Context 0 belongs to the Rank-level (implicit world) API.
const worldCtx = 1

// CommWorld returns a communicator over all ranks (MPI_COMM_WORLD as an
// explicit object). It may be called any number of times; all copies share
// the reserved world context but each carries its own collective-tag
// counter, so interleaving collectives across copies is not allowed (as in
// MPI, where they would be the same communicator anyway).
func (r *Rank) CommWorld() *Comm {
	members := make([]int, r.size)
	for i := range members {
		members[i] = i
	}
	return &Comm{r: r, ctx: worldCtx, members: members, myIdx: r.rank}
}

// Rank returns the communicator-local rank.
func (c *Comm) Rank() int { return c.myIdx }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// GlobalRank translates a communicator-local rank to the world rank.
func (c *Comm) GlobalRank(localRank int) int { return c.worldRank("GlobalRank of", localRank) }

// worldRank translates the communicator-local rank a call names to the world
// rank; AnySource passes through. A rank outside the communicator aborts the
// job with the call's name.
func (c *Comm) worldRank(call string, local int) int {
	if local == AnySource {
		return AnySource
	}
	if local < 0 || local >= len(c.members) {
		c.r.p.Fatalf("%s rank %d outside communicator of size %d", call, local, len(c.members))
	}
	return c.members[local]
}

// group is the communicator as a collective group.
func (c *Comm) group() group {
	return group{members: c.members, me: c.myIdx, n: len(c.members), ctx: c.ctx | collCtxBit, seq: &c.collSeq}
}

// --- point-to-point ------------------------------------------------------

// Isend starts a nonblocking send to communicator-local rank dst.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	c.r.profEnter()
	defer c.r.profExit("Isend")
	return c.r.isendCtx(c.worldRank("Isend to", dst), tag, c.ctx, data, false)
}

// Irecv posts a nonblocking receive from communicator-local rank src
// (AnySource allowed). The returned status reports world source ranks.
func (c *Comm) Irecv(src, tag int, buf []byte) *Request {
	c.r.profEnter()
	defer c.r.profExit("Irecv")
	return c.r.irecvCtx(c.worldRank("Irecv from", src), tag, c.ctx, buf)
}

// Send is a blocking send to communicator-local rank dst.
func (c *Comm) Send(dst, tag int, data []byte) {
	c.r.profEnter()
	defer c.r.profExit("Send")
	c.r.send(c.worldRank("Send to", dst), tag, c.ctx, data, false)
}

// Recv is a blocking receive from communicator-local rank src; the status
// source is translated back to the communicator-local rank.
func (c *Comm) Recv(src, tag int, buf []byte) Status {
	c.r.profEnter()
	defer c.r.profExit("Recv")
	st := c.r.recv(c.worldRank("Recv from", src), tag, c.ctx, buf)
	st.Source = c.localOf(st.Source)
	return st
}

// Wait forwards to the underlying rank.
func (c *Comm) Wait(req *Request) Status { return c.r.Wait(req) }

// localOf translates a world rank to the communicator-local rank (-1 if
// not a member).
func (c *Comm) localOf(world int) int { return indexOf(c.members, world) }

// --- collectives ----------------------------------------------------------

// Barrier blocks until all members arrive (dissemination).
func (c *Comm) Barrier() {
	c.r.profEnter()
	defer c.r.profExit("Barrier")
	c.r.barrier(c.group())
}

// Bcast broadcasts from communicator-local root (binomial tree).
func (c *Comm) Bcast(root int, data []byte) {
	c.r.profEnter()
	defer c.r.profExit("Bcast")
	c.r.bcast(c.group(), root, data)
}

// Reduce combines members' buffers into the communicator-local root
// (binomial tree); non-root buffers are scratch.
func (c *Comm) Reduce(root int, buf []byte, op ReduceOp) {
	c.r.profEnter()
	defer c.r.profExit("Reduce")
	c.r.reduce(c.group(), root, buf, op)
}

// Allreduce combines buf across members (recursive doubling with the
// standard non-power-of-two fold).
func (c *Comm) Allreduce(buf []byte, op ReduceOp) {
	c.r.profEnter()
	defer c.r.profExit("Allreduce")
	c.r.groupAllreduce(c.group(), buf, op)
}

// Allgather concatenates each member's mine into out in communicator rank
// order.
func (c *Comm) Allgather(mine []byte, out []byte) {
	c.r.profEnter()
	defer c.r.profExit("Allgather")
	c.r.allgatherv(c.group(), layout{k: len(mine)}, mine, out)
}

// Alltoall exchanges fixed-size chunks between all members.
func (c *Comm) Alltoall(send, recv []byte, chunk int) {
	c.r.profEnter()
	defer c.r.profExit("Alltoall")
	c.r.alltoall(c.group(), send, recv, chunk)
}

// Sendrecv performs a combined blocking exchange over the communicator
// (local ranks); the returned status source is communicator-local.
func (c *Comm) Sendrecv(dst, sendTag int, sendData []byte, src, recvTag int, recvBuf []byte) Status {
	c.r.profEnter()
	defer c.r.profExit("Sendrecv")
	st := c.r.sendrecv(c.worldRank("Sendrecv to", dst), sendTag, sendData,
		c.worldRank("Sendrecv from", src), recvTag, recvBuf, c.ctx)
	st.Source = c.localOf(st.Source)
	return st
}

// Gather collects every member's mine into root's out in communicator rank
// order; out is only accessed at root.
func (c *Comm) Gather(root int, mine []byte, out []byte) {
	c.r.profEnter()
	defer c.r.profExit("Gather")
	c.r.gatherv(c.group(), root, layout{k: len(mine)}, mine, out)
}

// Scatter distributes root's chunks to the members.
func (c *Comm) Scatter(root int, all []byte, mine []byte) {
	c.r.profEnter()
	defer c.r.profExit("Scatter")
	c.r.scatterv(c.group(), root, layout{k: len(mine)}, all, mine)
}

// --- split ----------------------------------------------------------------

// Undefined is the MPI_UNDEFINED color: the caller joins no new
// communicator and Split returns nil.
const Undefined = -1

// Split partitions the communicator by color; members with equal color form
// a new communicator ordered by (key, parent rank). Collective over the
// parent communicator.
func (c *Comm) Split(color, key int) *Comm {
	c.r.profEnter()
	defer c.r.profExit("Comm_split")

	// Exchange (color, key) triples over the parent.
	mine := EncodeInt64s([]int64{int64(color), int64(key)})
	all := make([]byte, len(mine)*len(c.members))
	c.Allgather(mine, all)
	vals := DecodeInt64s(all)

	// Agree on the new context id: strictly above every member's counter.
	ctr := EncodeInt64s([]int64{int64(c.r.w.ctxCounter)})
	c.Allreduce(ctr, MaxInt64)
	newCtx := int(DecodeInt64s(ctr)[0]) + 1
	if newCtx >= collCtxBit {
		c.r.p.Fatalf("communicator context ids exhausted (%d)", newCtx)
	}
	c.r.w.ctxCounter = newCtx

	if color == Undefined {
		return nil
	}
	type member struct{ key, parentIdx int }
	var group []member
	for i := 0; i < len(c.members); i++ {
		if int(vals[2*i]) == color {
			group = append(group, member{key: int(vals[2*i+1]), parentIdx: i})
		}
	}
	sort.Slice(group, func(a, b int) bool {
		if group[a].key != group[b].key {
			return group[a].key < group[b].key
		}
		return group[a].parentIdx < group[b].parentIdx
	})
	nc := &Comm{r: c.r, ctx: newCtx}
	for i, m := range group {
		world := c.members[m.parentIdx]
		nc.members = append(nc.members, world)
		if world == c.r.rank {
			nc.myIdx = i
		}
	}
	return nc
}
