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
// co-resident, sorted ascending and including the rank itself) and the
// sorted list of all group leaders. Groups are identical on every member
// because TreatLocal is an equivalence over our deployments (same host /
// same hostname).
func (r *Rank) localityGroup() (group []int, leaders []int) {
	group = r.LocalRanks()
	leaderOf := make([]int, r.size)
	for i := range leaderOf {
		leaderOf[i] = -1
	}
	for rank := 0; rank < r.size; rank++ {
		if leaderOf[rank] >= 0 {
			continue
		}
		// The group of `rank` as seen globally: every peer it treats local.
		leader := rank
		leaderOf[rank] = leader
		for peer := rank + 1; peer < r.size; peer++ {
			if r.sameGroup(rank, peer) {
				leaderOf[peer] = leader
			}
		}
	}
	seen := map[int]bool{}
	for _, l := range leaderOf {
		if !seen[l] {
			seen[l] = true
			leaders = append(leaders, l)
		}
	}
	return group, leaders
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
	group, leaders := r.localityGroup()
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

// hierAllgather: leaders gather their group's blocks, allgather full host
// blocks among leaders, then broadcast the assembled result locally. Block
// layout in out follows global rank order, which requires groups to be
// contiguous rank ranges (true for all block-distributed deployments); it
// falls back to the flat algorithm otherwise.
func (r *Rank) hierAllgather(mine []byte, out []byte) bool {
	group, leaders := r.localityGroup()
	// Contiguity check: group must be a consecutive rank range.
	for i := 1; i < len(group); i++ {
		if group[i] != group[0]+i {
			return false
		}
	}
	k := len(mine)
	leader := group[0]
	tagGather := r.nextCollTag()
	tagLeaders := r.nextCollTag()
	tagBcast := r.nextCollTag()

	// Phase 1: linear gather of the group's blocks into the leader's view
	// of out (groups are small; the traffic rides SHM/CMA).
	if r.rank != leader {
		r.wait(r.csend(leader, tagGather, mine))
	} else {
		copy(out[r.rank*k:], mine)
		var reqs []*Request
		for _, m := range group[1:] {
			reqs = append(reqs, r.crecv(m, tagGather, out[m*k:(m+1)*k]))
		}
		for _, rq := range reqs {
			r.wait(rq)
		}
		// Phase 2: ring allgather of whole host blocks among leaders.
		// Leaders may own different group sizes; exchange each leader's
		// contiguous region.
		if len(leaders) > 1 {
			me := indexOf(leaders, r.rank)
			n := len(leaders)
			regionOf := func(li int) (lo, hi int) {
				l := leaders[li]
				lo = l * k
				if li+1 < n {
					hi = leaders[li+1] * k
				} else {
					hi = len(out)
				}
				return
			}
			right := leaders[(me+1)%n]
			left := leaders[(me-1+n)%n]
			for step := 0; step < n-1; step++ {
				sendIdx := (me - step + n) % n
				recvIdx := (me - step - 1 + n) % n
				sLo, sHi := regionOf(sendIdx)
				rLo, rHi := regionOf(recvIdx)
				rq := r.crecv(left, tagLeaders, out[rLo:rHi])
				r.wait(r.csend(right, tagLeaders, out[sLo:sHi]))
				r.wait(rq)
			}
		}
	}
	// Phase 3: local broadcast of the assembled array.
	r.bcast(r.subset(group, tagBcast), 0, out)
	return true
}

// hierBcast: binomial broadcast among leaders rooted at the root's leader,
// then linear local broadcast (groups are small).
func (r *Rank) hierBcast(root int, data []byte) {
	group, leaders := r.localityGroup()
	leader := group[0]
	tag := r.nextCollTag()
	tagLeaders := r.nextCollTag()
	tag2 := r.nextCollTag()

	// Root hands the data to its leader if it is not one.
	rootLeader := r.leaderOfRank(root, leaders)
	if r.rank == root && root != rootLeader {
		r.wait(r.csend(rootLeader, tag, data))
	}
	if r.rank == rootLeader && root != rootLeader {
		r.wait(r.crecv(root, tag, data))
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
			r.wait(r.csend(m, tag2, data))
		}
	} else if r.rank != root || root == rootLeader {
		r.wait(r.crecv(leader, tag2, data))
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
