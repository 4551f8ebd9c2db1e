package mpi

// Collective algorithm selection: one level up from the paper's per-message
// channel selection, the runtime picks a flat Allreduce algorithm per call
// from message size, world size, and the deployment's locality shape. The
// family (recursive doubling, Rabenseifner reduce-scatter+allgather, ring)
// follows "Design and Implementation of MPICH2 over InfiniBand with RDMA
// Support"; the selection policy is this library's, calibrated against the
// simulator's cost model: non-power-of-two worlds always take the ring
// (Rabenseifner folds the surplus ranks with whole-buffer pre/post
// exchanges, while the ring uses every rank directly); power-of-two worlds
// take Rabenseifner when fully co-resident (its 2·log2(P) rounds beat the
// ring's 2(P-1) steps on shared memory) and the ring when spread over hosts
// (each ring step moves only size/P bytes per link and most hops stay
// on-host, while Rabenseifner's first rounds push size/2 across the
// fabric).
//
// Every rank must choose the SAME algorithm per call or the collective
// deadlocks, so every selector input is globally identical: the buffer
// length and world size are the same on all ranks by MPI semantics, the
// tunables are job-wide, and the co-resident fraction comes from the
// deployment's ground truth — never from per-rank capability tables, which
// can diverge when a detector fault degrades one rank to hostname locality.

import (
	"cmpi/internal/cluster"
	"cmpi/internal/core"
)

// localityPartition is the deployment's ground truth split into the groups
// the library's mode treats as mutually local: one group per hostname by
// default, per host and IPC namespace (what the detector recovers) in
// locality-aware mode. Both are equalities of a key, so every rank sees the
// same partition.
type localityPartition struct {
	groups     [][]int // each group's ranks, ascending; groups in leader order
	of         []int32 // each rank's group
	leaders    []int   // each group's lowest rank, ascending
	contiguous bool    // every group is a consecutive rank range
	// coResFrac is the fraction of rank pairs in one group (1 for a fully
	// co-resident job or a single rank, 0 when every pair is remote).
	coResFrac float64
}

// localityKey names a rank's locality group: host and IPC namespace in
// locality-aware mode, the hostname otherwise.
type localityKey struct {
	host *cluster.Host
	ipc  *cluster.Namespace
	name string
}

// partition returns the world's locality partition, built on first use: the
// deployment never changes after NewWorld.
func (w *World) partition() *localityPartition {
	if w.part == nil {
		n := len(w.Deploy.Placements)
		p := &localityPartition{of: make([]int32, n), contiguous: true}
		index := make(map[localityKey]int32)
		for rank, pl := range w.Deploy.Placements {
			k := localityKey{name: pl.Env.Hostname()}
			if w.Opts.Mode == core.ModeLocalityAware {
				k = localityKey{host: pl.Env.Host, ipc: pl.Env.Namespace(cluster.IPC)}
			}
			g, seen := index[k]
			switch {
			case !seen:
				g = int32(len(p.groups))
				index[k] = g
				p.groups = append(p.groups, nil)
				p.leaders = append(p.leaders, rank)
			case p.of[rank-1] != g:
				// A group is a range only if each member continues rank-1's.
				p.contiguous = false
			}
			p.of[rank] = g
			p.groups[g] = append(p.groups[g], rank)
		}
		p.coResFrac = 1
		if n >= 2 {
			local := 0
			for _, members := range p.groups {
				local += len(members) * (len(members) - 1) / 2
			}
			p.coResFrac = float64(local) / float64(n*(n-1)/2)
		}
		w.part = p
	}
	return w.part
}

// groupOf is the locality group of rank.
func (p *localityPartition) groupOf(rank int) []int { return p.groups[p.of[rank]] }

// selectAllreduce picks the algorithm for one flat Allreduce of n bytes.
// pof2 is the largest power of two <= world size. A forced algorithm whose
// alignment requirement the buffer cannot meet falls back deterministically
// (Rabenseifner → ring → recursive doubling), identically on every rank.
func (r *Rank) selectAllreduce(n, pof2 int) core.AllreduceAlgo {
	algo := r.w.Opts.Tunables.AllreduceAlgo
	if algo == core.AllreduceAuto {
		algo = r.autoAllreduce(n, pof2)
	}
	switch algo {
	case core.AllreduceRabenseifner:
		if n%(8*pof2) != 0 {
			if n%8 == 0 && r.size > 2 {
				return core.AllreduceRing
			}
			return core.AllreduceRecursiveDoubling
		}
	case core.AllreduceRing:
		if n%8 != 0 || r.size <= 2 {
			return core.AllreduceRecursiveDoubling
		}
	}
	return algo
}

// autoAllreduce is the selection policy when no algorithm is forced.
func (r *Rank) autoAllreduce(n, pof2 int) core.AllreduceAlgo {
	// Small buffers (and trivial worlds): recursive doubling's log2(P)
	// rounds win on latency, and bandwidth does not matter yet.
	if n < r.w.Opts.Tunables.AllreduceLargeThreshold || r.size <= 2 {
		return core.AllreduceRecursiveDoubling
	}
	// The bandwidth-optimal algorithms split the buffer into 8-byte
	// elements; an unaligned large buffer stays on recursive doubling.
	if n%8 != 0 {
		return core.AllreduceRecursiveDoubling
	}
	// Non-power-of-two world: Rabenseifner (and recursive doubling) fold
	// the surplus ranks with a whole-buffer pre/post exchange; the ring
	// uses every rank directly and degrades gracefully with any P.
	if r.size != pof2 {
		return core.AllreduceRing
	}
	// Power-of-two world, fully co-resident: Rabenseifner's 2·log2(P)
	// rounds beat the ring's 2(P-1) steps when every hop is shared memory,
	// provided the buffer splits into pof2-aligned segments.
	if r.w.partition().coResFrac >= 1 && n%(8*pof2) == 0 {
		return core.AllreduceRabenseifner
	}
	// Spread power-of-two world: each ring step moves only size/P bytes per
	// link and most hops stay on-host; Rabenseifner's first rounds push
	// size/2 across the fabric.
	return core.AllreduceRing
}
