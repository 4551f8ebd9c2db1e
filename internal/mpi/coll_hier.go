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

// localityGroup returns this rank's group (the ranks the library believes
// co-resident, sorted ascending and including the rank itself), the sorted
// list of all group leaders (each group's lowest rank), and whether every
// group is a consecutive rank range. Every member computes the same group,
// and every rank the same leaders and contiguity, because TreatLocal is an
// equivalence over our deployments (same host / same hostname).
func (r *Rank) localityGroup() (group, leaders []int, contiguous bool) {
	leaderOf := make([]int, r.size)
	for i := range leaderOf {
		leaderOf[i] = -1
	}
	contiguous = true
	for rank := 0; rank < r.size; rank++ {
		if leaderOf[rank] >= 0 {
			// A member: its group is a range only if it continues rank-1's.
			contiguous = contiguous && leaderOf[rank] == leaderOf[rank-1]
			continue
		}
		leaderOf[rank] = rank
		leaders = append(leaders, rank)
		for peer := rank + 1; peer < r.size; peer++ {
			if r.sameGroup(rank, peer) {
				leaderOf[peer] = rank
			}
		}
	}
	return r.LocalRanks(), leaders, contiguous
}

// sameGroup reports whether ranks a and b are mutually local from the
// deployment's ground truth filtered through the library's mode (see
// World.sameLocalityGroup, shared with the algorithm selector).
func (r *Rank) sameGroup(a, b int) bool {
	return r.w.sameLocalityGroup(a, b)
}

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
	group, leaders, _ := r.localityGroup()
	tag := r.nextCollTag()
	tagLeaders := r.nextCollTag()
	tag2 := r.nextCollTag()

	// Binomial local reduce to the leader (group[0]).
	r.reduce(r.subset(group, tag), 0, buf, op)
	if r.rank == group[0] {
		r.groupAllreduce(r.subset(leaders, tagLeaders), buf, op)
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
	group, leaders, contiguous := r.localityGroup()
	if !contiguous {
		return false
	}
	k := len(mine)
	leader := group[0]
	tagGather, tagLeaders, tagBcast := r.nextCollTag(), r.nextCollTag(), r.nextCollTag()
	r.gatherv(r.subset(group, tagGather), 0, layout{k: k}, mine, out[leader*k:(leader+len(group))*k])
	if r.rank == leader {
		offs := make([]int, len(leaders)+1)
		for i, l := range leaders {
			offs[i] = l * k
		}
		offs[len(leaders)] = len(out)
		r.allgatherv(r.subset(leaders, tagLeaders), layout{offs: offs}, nil, out)
	}
	r.bcast(r.subset(group, tagBcast), 0, out)
	return true
}

// hierBcast: binomial broadcast among leaders rooted at the root's leader,
// then linear local broadcast (groups are small).
func (r *Rank) hierBcast(root int, data []byte) {
	group, leaders, _ := r.localityGroup()
	leader := group[0]
	tag := r.nextCollTag()
	tagLeaders := r.nextCollTag()
	tag2 := r.nextCollTag()

	// Root hands the data to its leader if it is not one.
	rootLeader := r.leaderOfRank(root, leaders)
	if r.rank == root && root != rootLeader {
		r.wait(r.isendCtx(rootLeader, tag, collCtxBit, data))
	}
	if r.rank == rootLeader && root != rootLeader {
		r.wait(r.irecvCtx(root, tag, collCtxBit, data))
	}
	// Inter-leader binomial broadcast.
	if r.rank == leader {
		r.bcast(r.subset(leaders, tagLeaders), indexOf(leaders, rootLeader), data)
	}
	// Local linear broadcast.
	if r.rank == leader {
		for _, m := range group[1:] {
			if m == root && root != rootLeader {
				// Root already has the data.
				continue
			}
			r.wait(r.isendCtx(m, tag2, collCtxBit, data))
		}
	} else if r.rank != root || root == rootLeader {
		r.wait(r.irecvCtx(leader, tag2, collCtxBit, data))
	}
}

// leaderOfRank returns the leader of the group containing rank.
func (r *Rank) leaderOfRank(rank int, leaders []int) int {
	for _, l := range leaders {
		if r.sameGroup(l, rank) {
			return l
		}
	}
	return rank
}
