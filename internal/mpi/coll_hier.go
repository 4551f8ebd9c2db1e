package mpi

// Two-level (hierarchical) collectives: an extension over the paper's
// design that exploits the locality map a second time. Ranks are grouped by
// the library's locality view (hosts in locality-aware mode, containers in
// default mode); a leader per group participates in the inter-group phase
// while intra-group phases ride the fast SHM/CMA channels.
//
// Enabled via Options.HierarchicalCollectives; the flat algorithms remain
// the default, matching the paper's evaluation. The ablation bench
// BenchmarkAblationFlatVsHierarchical compares the two.

// The groups, their leaders (each group's lowest rank) and whether every group
// is a rank range are the world's locality partition (coll_select.go), built
// once and shared with the algorithm selector: every rank sees the same one.

// subset is an explicit member list as a collective group under a tag the
// caller minted: every member passes the same list and tag. The phases of a
// two-level collective run the world's steppers over it.
func (r *Rank) subset(members []int, tag int) group {
	me := indexOf(members, r.rank)
	if me < 0 {
		r.p.Fatalf("hierarchical collective: rank %d not in member list %v", r.rank, members)
	}
	return group{members: members, me: me, n: len(members), ctx: collCtxBit, tag: tag}
}

// indexOf is the position of rank in members, or -1.
func indexOf(members []int, rank int) int {
	for i, m := range members {
		if m == rank {
			return i
		}
	}
	return -1
}

// hierAllreduce: local reduce to the group leader, recursive-doubling
// allreduce among leaders, local broadcast. Every rank mints the same three
// tags so the global collective-tag sequence stays aligned.
func (r *Rank) hierAllreduce(buf []byte, op ReduceOp) {
	p := r.w.partition()
	group := p.groupOf(r.rank)
	tag := r.nextCollTag()
	tagLeaders := r.nextCollTag()
	tag2 := r.nextCollTag()

	// Binomial local reduce to the leader (group[0]).
	r.reduce(r.subset(group, tag), 0, buf, op)
	if r.rank == group[0] {
		r.groupAllreduce(r.subset(p.leaders, tagLeaders), buf, op)
	}
	// Binomial local broadcast of the result.
	r.bcast(r.subset(group, tag2), 0, buf)
}

// hierAllgather: each leader gathers its group's blocks into its region of
// out, the leaders allgather their regions, and each leader broadcasts the
// assembled result to its group. Regions follow global rank order, which
// requires every group to be a contiguous rank range (true for all
// block-distributed deployments); otherwise every rank falls back to the
// flat algorithm, and reports false.
func (r *Rank) hierAllgather(mine []byte, out []byte) bool {
	p := r.w.partition()
	if !p.contiguous {
		return false
	}
	group := p.groupOf(r.rank)
	k := len(mine)
	leader := group[0]
	tagGather, tagLeaders, tagBcast := r.nextCollTag(), r.nextCollTag(), r.nextCollTag()
	r.gatherv(r.subset(group, tagGather), 0, layout{k: k}, mine, out[leader*k:(leader+len(group))*k])
	if r.rank == leader {
		offs := make([]int, len(p.leaders)+1)
		for i, l := range p.leaders {
			offs[i] = l * k
		}
		offs[len(p.leaders)] = len(out)
		r.allgatherv(r.subset(p.leaders, tagLeaders), layout{offs: offs}, nil, out)
	}
	r.bcast(r.subset(group, tagBcast), 0, out)
	return true
}

// hierBcast: binomial broadcast among leaders rooted at the root's leader,
// then linear local broadcast (groups are small).
func (r *Rank) hierBcast(root int, data []byte) {
	r.checkRoot("Bcast", root, r.size)
	p := r.w.partition()
	group := p.groupOf(r.rank)
	leader := group[0]
	tag := r.nextCollTag()
	tagLeaders := r.nextCollTag()
	tag2 := r.nextCollTag()

	// Root hands the data to its leader if it is not one.
	rootLeader := p.groupOf(root)[0]
	if r.rank == root && root != rootLeader {
		r.wait(r.isendCtx(rootLeader, tag, collCtxBit, data, false))
	}
	if r.rank == rootLeader && root != rootLeader {
		r.wait(r.irecvCtx(root, tag, collCtxBit, data))
	}
	// Inter-leader binomial broadcast.
	if r.rank == leader {
		r.bcast(r.subset(p.leaders, tagLeaders), int(p.of[root]), data)
	}
	// Local linear broadcast.
	if r.rank == leader {
		for _, m := range group[1:] {
			if m == root && root != rootLeader {
				// Root already has the data.
				continue
			}
			r.wait(r.isendCtx(m, tag2, collCtxBit, data, false))
		}
	} else if r.rank != root || root == rootLeader {
		r.wait(r.irecvCtx(leader, tag2, collCtxBit, data))
	}
}
