// Package graph500 implements the Graph 500 benchmark (MPI-simple flavor)
// on the simulated MPI runtime: a Kronecker (R-MAT) generator, distributed
// edge exchange, 1D-partitioned CSR construction, level-synchronous
// distributed BFS with per-destination message coalescing, tree validation,
// and TEPS reporting.
//
// The communication pattern — many coalesced asynchronous point-to-point
// messages (MPI_Isend/Irecv/Test) plus one MPI_Allreduce per BFS level — is
// exactly the pattern the paper profiles in Sec. III, where it exposes the
// intra-host inter-container HCA bottleneck.
//
// A run borrows its state from its rank and hands it back when it returns:
// batches from Rank.AllocMem, the CSR, parent, level and frontier arrays
// from mpi.AllocMemOf, generators from mpi.NewRand. The BFS's lists are
// sized once per run, so a warm process reruns it without allocating its
// state again.
package graph500

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"cmpi/internal/mpi"
	"cmpi/internal/sim"
)

// Params configures one Graph 500 run.
type Params struct {
	// Scale: the graph has 2^Scale vertices.
	Scale int
	// EdgeFactor: edges = EdgeFactor * 2^Scale (16 in the paper).
	EdgeFactor int
	// Roots is the number of BFS roots to run (Graph 500 uses 64; scale it
	// down for tests).
	Roots int
	// Seed drives the deterministic Kronecker generator and root choice.
	Seed int64
	// CoalesceBytes is the per-destination aggregation buffer: a batch is
	// flushed when it reaches this size. The paper's analysis sets it to
	// 8 KiB, which routes batches through the CMA/rendezvous path.
	CoalesceBytes int
	// Validate enables full BFS tree validation (needs 4*2^Scale bytes of
	// allgathered levels per rank; keep Scale <= 20).
	Validate bool
}

// DefaultParams returns the paper's Fig. 1 configuration at the given scale.
func DefaultParams(scale int) Params {
	return Params{Scale: scale, EdgeFactor: 16, Roots: 4, Seed: 20160816, CoalesceBytes: 8192, Validate: true}
}

// Result is the outcome of a run.
type Result struct {
	// NVertices and NEdges describe the generated graph.
	NVertices, NEdges int64
	// BFSTimes holds the per-root BFS wall time (max across ranks).
	BFSTimes []sim.Time
	// MeanBFS is the mean of BFSTimes — the quantity in the paper's
	// Figs. 1 and 11.
	MeanBFS sim.Time
	// TEPS is mean traversed edges per second across roots.
	TEPS float64
	// Validated reports whether tree validation ran and passed.
	Validated bool
	// VisitedMean is the mean number of vertices discovered per BFS.
	VisitedMean float64
	// MaxLevels is the deepest BFS level observed across roots.
	MaxLevels int32
}

// Cost model: work units charged to the virtual clock per event.
const (
	scanCost    = 1.0  // per adjacency entry scanned
	recvCost    = 0.25 // per remote discovery pair processed
	vertexCost  = 0.5  // per frontier vertex dequeued
	genEdgeCost = 2.0  // per edge generated during construction
)

// Run executes Graph 500 on the world and returns the result (identical on
// every rank; returned from rank 0's perspective).
func Run(w *mpi.World, p Params) (Result, error) {
	if p.Scale < 2 || p.Scale > 30 {
		return Result{}, fmt.Errorf("graph500: scale %d out of range [2,30]", p.Scale)
	}
	if p.EdgeFactor < 1 || p.Roots < 1 {
		return Result{}, fmt.Errorf("graph500: edgefactor %d / roots %d invalid", p.EdgeFactor, p.Roots)
	}
	if p.CoalesceBytes < 16 {
		return Result{}, fmt.Errorf("graph500: coalesce buffer %d too small", p.CoalesceBytes)
	}
	var res Result
	var failure error
	err := w.Run(func(r *mpi.Rank) error {
		st, err := run(r, p)
		if err != nil {
			failure = err
			return err
		}
		if r.Rank() == 0 {
			res = st
		}
		return nil
	})
	if failure != nil {
		return Result{}, failure
	}
	return res, err
}

// bfsState is the per-rank graph and traversal state.
type bfsState struct {
	r       *mpi.Rank
	p       Params
	n       int64 // global vertices
	perRank int64 // block size
	base    int64 // first owned vertex
	ownedN  int64

	// CSR adjacency of owned vertices.
	adjOff []int64
	adjVal []uint32

	parent []int64
	level  []int32

	// The BFS's working lists, sized once for every root: a level's
	// vertices (cur) and the next's (frontier) hold at most ownedN each;
	// outs, sent and sendReqs start with room for a batch, and sendReqs
	// for an end marker too, to every peer.
	cur, frontier []int64
	outs, sent    [][]byte
	sendReqs      []*mpi.Request
}

// free hands the state's arrays back to the rank's pool.
func (s *bfsState) free() {
	mpi.FreeMemOf(s.r, s.adjOff)
	mpi.FreeMemOf(s.r, s.adjVal)
	mpi.FreeMemOf(s.r, s.parent)
	mpi.FreeMemOf(s.r, s.level)
	mpi.FreeMemOf(s.r, s.cur)
	mpi.FreeMemOf(s.r, s.frontier)
}

func (s *bfsState) owner(v int64) int { return int(v / s.perRank) }

func run(r *mpi.Rank, p Params) (Result, error) {
	n := int64(1) << uint(p.Scale)
	size := int64(r.Size())
	perRank := (n + size - 1) / size
	s := &bfsState{
		r: r, p: p, n: n, perRank: perRank,
		base: int64(r.Rank()) * perRank,
	}
	s.ownedN = perRank
	if s.base+s.ownedN > n {
		s.ownedN = n - s.base
	}
	if s.ownedN < 0 {
		s.ownedN = 0
	}

	defer s.free()
	if err := s.buildGraph(); err != nil {
		return Result{}, err
	}
	s.cur, s.frontier = mpi.AllocMemOf[int64](r, int(s.ownedN)), mpi.AllocMemOf[int64](r, int(s.ownedN))
	s.outs = make([][]byte, size)
	s.sent, s.sendReqs = make([][]byte, 0, size), make([]*mpi.Request, 0, 2*size)

	res := Result{NVertices: n, NEdges: int64(p.EdgeFactor) * n}
	rng := mpi.NewRand(p.Seed ^ 0x9E3779B9)
	defer mpi.FreeRand(rng)
	var totalScanned int64
	var totalVisited int64
	for root := 0; root < p.Roots; root++ {
		rv := s.pickRoot(rng)
		r.Barrier()
		start := r.Now()
		scanned, visited, levels := s.bfs(rv)
		if levels > res.MaxLevels {
			res.MaxLevels = levels
		}
		elapsedHere := r.Now() - start
		worst := r.AllreduceFloat64(elapsedHere.Seconds(), mpi.MaxFloat64)
		elapsed := sim.FromSeconds(worst)
		res.BFSTimes = append(res.BFSTimes, elapsed)
		res.MeanBFS += elapsed
		totalScanned += r.AllreduceInt64(scanned, mpi.SumInt64)
		totalVisited += r.AllreduceInt64(visited, mpi.SumInt64)
		if p.Validate {
			if err := s.validate(rv); err != nil {
				return Result{}, fmt.Errorf("BFS validation failed for root %d: %w", rv, err)
			}
			res.Validated = true
		}
	}
	res.MeanBFS /= sim.Time(p.Roots)
	res.VisitedMean = float64(totalVisited) / float64(p.Roots)
	if res.MeanBFS > 0 {
		res.TEPS = float64(totalScanned) / float64(p.Roots) / res.MeanBFS.Seconds()
	}
	return res, nil
}

// kronEdge draws one R-MAT edge (A=0.57, B=0.19, C=0.19, D=0.05).
func kronEdge(rng *rand.Rand, scale int) (int64, int64) {
	const a, b, c = 0.57, 0.19, 0.19
	var u, v int64
	for k := 0; k < scale; k++ {
		x := rng.Float64()
		switch {
		case x < a:
		case x < a+b:
			v |= 1 << uint(k)
		case x < a+b+c:
			u |= 1 << uint(k)
		default:
			u |= 1 << uint(k)
			v |= 1 << uint(k)
		}
	}
	return u, v
}

// buildGraph generates this rank's share of Kronecker edges, exchanges
// directed copies to both endpoint owners, and builds the local CSR.
func (s *bfsState) buildGraph() error {
	r := s.r
	size := r.Size()
	totalEdges := int64(s.p.EdgeFactor) * s.n

	// Generate into per-destination buffers: each undirected edge (u,v)
	// yields directed (u->v) for owner(u) and (v->u) for owner(v).
	// Generation is chunked with per-chunk seeds and chunks are assigned to
	// ranks round-robin, so the edge set — and thus every graph-derived
	// result — is identical for any rank count.
	const chunkEdges = 16384
	outs := make([][]byte, size)
	add := func(dst int, from, to int64) {
		var e [8]byte
		binary.LittleEndian.PutUint32(e[0:], uint32(from))
		binary.LittleEndian.PutUint32(e[4:], uint32(to))
		outs[dst] = r.AppendMem(outs[dst], e[:]...)
	}
	var myEdges int64
	nChunks := (totalEdges + chunkEdges - 1) / chunkEdges
	rng := mpi.NewRand(0) // reseeded per chunk
	for chunk := int64(r.Rank()); chunk < nChunks; chunk += int64(size) {
		rng.Seed(s.p.Seed + chunk*1_000_003)
		start, end := chunk*chunkEdges, (chunk+1)*chunkEdges
		if end > totalEdges {
			end = totalEdges
		}
		for i := start; i < end; i++ {
			u, v := kronEdge(rng, s.p.Scale)
			if u == v {
				continue // drop self-loops, as the reference code does
			}
			add(s.owner(u), u, v)
			add(s.owner(v), v, u)
		}
		myEdges += end - start
	}
	mpi.FreeRand(rng)
	r.Compute(genEdgeCost * float64(myEdges))

	ins := r.ExchangeV(outs, 1)

	// Degree count, prefix sum, fill; deg counts the fill once the offsets
	// are summed.
	deg := mpi.AllocMemOf[int64](r, int(s.ownedN))
	defer mpi.FreeMemOf(r, deg)
	clear(deg)
	forEachEdge := func(fn func(from, to int64)) {
		for _, buf := range ins {
			for off := 0; off+8 <= len(buf); off += 8 {
				from := int64(binary.LittleEndian.Uint32(buf[off:]))
				to := int64(binary.LittleEndian.Uint32(buf[off+4:]))
				fn(from, to)
			}
		}
	}
	var localEdges int64
	forEachEdge(func(from, to int64) {
		li := from - s.base
		if li < 0 || li >= s.ownedN {
			panic(fmt.Sprintf("rank %d received edge for vertex %d outside [%d,%d)", r.Rank(), from, s.base, s.base+s.ownedN))
		}
		deg[li]++
		localEdges++
	})
	s.adjOff = mpi.AllocMemOf[int64](r, int(s.ownedN)+1)
	s.adjOff[0] = 0
	for i := int64(0); i < s.ownedN; i++ {
		s.adjOff[i+1] = s.adjOff[i] + deg[i]
	}
	s.adjVal = mpi.AllocMemOf[uint32](r, int(localEdges))
	fill := deg
	clear(fill)
	forEachEdge(func(from, to int64) {
		li := from - s.base
		s.adjVal[s.adjOff[li]+fill[li]] = uint32(to)
		fill[li]++
	})
	for _, buf := range ins {
		r.FreeMem(buf)
	}
	r.Compute(0.5 * float64(localEdges))

	s.parent = mpi.AllocMemOf[int64](r, int(s.ownedN)) // bfs sets both first
	s.level = mpi.AllocMemOf[int32](r, int(s.ownedN))
	return nil
}

// pickRoot deterministically selects a vertex with nonzero degree. All
// ranks draw the same candidates; the owner reports the degree test.
func (s *bfsState) pickRoot(rng *rand.Rand) int64 {
	r := s.r
	for {
		cand := rng.Int63n(s.n)
		flag := []byte{0}
		if s.owner(cand) == r.Rank() {
			li := cand - s.base
			if s.adjOff[li+1] > s.adjOff[li] {
				flag[0] = 1
			}
		}
		r.Bcast(s.owner(cand), flag)
		if flag[0] == 1 {
			return cand
		}
	}
}

// tagData carries BFS discovery batches; a zero-length message on the same
// tag is the end-of-level marker (data batches are never empty). A single
// tag keeps the drain loop to one blocking Probe and never collides with
// the runtime's internal (negative) collective tags.
const tagData = 10

// bfs runs one level-synchronous traversal from root, returning the number
// of adjacency entries scanned locally, vertices discovered locally, and
// the number of levels traversed.
func (s *bfsState) bfs(root int64) (scanned, visited int64, levels int32) {
	r := s.r
	size := r.Size()
	for i := range s.parent {
		s.parent[i] = -1
		s.level[i] = -1
	}
	frontier, cur := s.frontier[:0], s.cur[:0]
	if s.owner(root) == r.Rank() {
		li := root - s.base
		s.parent[li] = root
		s.level[li] = 0
		frontier = append(frontier, root)
		visited++
	}

	batchCap := s.p.CoalesceBytes / 8 * 8 // pairs of uint32, 8 bytes each
	outs := s.outs                        // each destination's batch, from AllocMem
	sent := s.sent[:0]                    // this level's batches, freed once sent
	sendReqs := s.sendReqs[:0]
	for level := int32(0); ; level++ {
		flush := func(d int) {
			if len(outs[d]) == 0 {
				return
			}
			sendReqs = append(sendReqs, r.Isend(d, tagData, outs[d]))
			sent = append(sent, outs[d])
			outs[d] = nil
		}
		discoverLocal := func(v, parent int64) {
			li := v - s.base
			if s.parent[li] < 0 {
				s.parent[li] = parent
				s.level[li] = level + 1
				frontier = append(frontier, v)
				visited++
			}
		}

		work := 0.0
		// cur holds the current level's vertices; the next level's collect
		// into frontier, over the memory of the level before.
		cur, frontier = frontier, cur[:0]
		for _, u := range cur {
			li := u - s.base
			work += vertexCost
			for _, vv := range s.adjVal[s.adjOff[li]:s.adjOff[li+1]] {
				v := int64(vv)
				scanned++
				work += scanCost
				if s.owner(v) == r.Rank() {
					discoverLocal(v, u)
					continue
				}
				d := s.owner(v)
				var e [8]byte
				binary.LittleEndian.PutUint32(e[0:], uint32(v))
				binary.LittleEndian.PutUint32(e[4:], uint32(u))
				if outs[d] == nil {
					outs[d] = r.AllocMem(batchCap)[:0]
				}
				outs[d] = r.AppendMem(outs[d], e[:]...)
				if len(outs[d]) >= batchCap {
					r.Compute(work)
					work = 0
					flush(d)
				}
			}
		}
		r.Compute(work)
		for d := 0; d < size; d++ {
			if d != r.Rank() {
				flush(d)
			}
		}
		// End-of-level markers (zero-length) to every peer.
		for d := 0; d < size; d++ {
			if d != r.Rank() {
				sendReqs = append(sendReqs, r.Isend(d, tagData, nil))
			}
		}
		// Drain data until every peer's end marker arrived.
		ends := 0
		for ends < size-1 {
			st := r.Probe(mpi.AnySource, tagData)
			if st.Bytes == 0 {
				r.Recv(st.Source, tagData, nil)
				ends++
				continue
			}
			buf := r.AllocMem(st.Bytes)
			r.Recv(st.Source, tagData, buf)
			w := 0.0
			for off := 0; off+8 <= len(buf); off += 8 {
				v := int64(binary.LittleEndian.Uint32(buf[off:]))
				parent := int64(binary.LittleEndian.Uint32(buf[off+4:]))
				discoverLocal(v, parent)
				w += recvCost
			}
			r.FreeMem(buf)
			r.Compute(w)
		}
		r.WaitAll(sendReqs...)
		r.Release(sendReqs...)
		for _, buf := range sent {
			r.FreeMem(buf)
		}
		sendReqs, sent = sendReqs[:0], sent[:0]
		total := r.AllreduceInt64(int64(len(frontier)), mpi.SumInt64)
		if total == 0 {
			s.sent, s.sendReqs = sent, sendReqs // kept, with any growth, for the next root
			return scanned, visited, level + 1
		}
	}
}

// validate checks the BFS tree: root self-parent, every tree edge present
// in the graph, and level(v) == level(parent(v)) + 1 everywhere. Levels are
// allgathered (int32 per vertex).
func (s *bfsState) validate(root int64) error {
	r := s.r
	// Gather all levels: each rank contributes perRank int32 (padded).
	mine := r.AllocMem(int(s.perRank * 4))
	defer r.FreeMem(mine)
	for i := int64(0); i < s.ownedN; i++ {
		binary.LittleEndian.PutUint32(mine[i*4:], uint32(s.level[i]))
	}
	all := r.AllocMem(r.Size() * int(s.perRank) * 4)
	defer r.FreeMem(all)
	r.Allgather(mine, all)
	levelOf := func(v int64) int32 {
		return int32(binary.LittleEndian.Uint32(all[v*4:]))
	}

	bad := int64(0)
	var firstErr error
	record := func(err error) {
		bad++
		if firstErr == nil {
			firstErr = err
		}
	}
	for li := int64(0); li < s.ownedN; li++ {
		v := s.base + li
		p := s.parent[li]
		if p < 0 {
			if s.level[li] != -1 {
				record(fmt.Errorf("vertex %d has level %d but no parent", v, s.level[li]))
			}
			continue
		}
		if v == root {
			if p != root || s.level[li] != 0 {
				record(fmt.Errorf("root %d has parent %d level %d", v, p, s.level[li]))
			}
			continue
		}
		if levelOf(p) != s.level[li]-1 {
			record(fmt.Errorf("vertex %d level %d but parent %d level %d", v, s.level[li], p, levelOf(p)))
		}
		// The tree edge (v, p) must exist in v's adjacency.
		found := false
		for _, w := range s.adjVal[s.adjOff[li]:s.adjOff[li+1]] {
			if int64(w) == p {
				found = true
				break
			}
		}
		if !found {
			record(fmt.Errorf("tree edge (%d,%d) not in graph", v, p))
		}
		// Completeness: every neighbor of a visited vertex must be visited.
		for _, w := range s.adjVal[s.adjOff[li]:s.adjOff[li+1]] {
			if levelOf(int64(w)) < 0 {
				record(fmt.Errorf("visited vertex %d has unvisited neighbor %d", v, w))
			}
		}
	}
	totalBad := r.AllreduceInt64(bad, mpi.SumInt64)
	if totalBad != 0 {
		if firstErr != nil {
			return fmt.Errorf("%d violations, first: %w", totalBad, firstErr)
		}
		return fmt.Errorf("%d violations on other ranks", totalBad)
	}
	return nil
}
