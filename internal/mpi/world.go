package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/ib"
	"cmpi/internal/profile"
	rec "cmpi/internal/recover"
	"cmpi/internal/shmem"
	"cmpi/internal/sim"
)

// World is one MPI job: the deployment it runs on, the substrates it uses,
// and its ranks. A fresh World is built per job (NewWorld) and driven once
// (Run).
type World struct {
	// Eng is the virtual-time engine all ranks run on.
	Eng *sim.Engine
	// Deploy is the rank-to-container mapping.
	Deploy *cluster.Deployment
	// Opts is the runtime configuration.
	Opts Options
	// Prof holds the mpiP-style profile when Opts.Profile is set.
	Prof *profile.Profile

	shm    *shmem.Registry
	fabric *ib.Fabric
	ranks  []*Rank
	jobID  string

	// inj is the job's fault injector (nil without a FaultPlan). All query
	// methods tolerate nil.
	inj *fault.Injector
	// rankErrs records each rank's failure (as *RankError) for aggregation,
	// indexed by rank.
	rankErrs []error

	// Recovery state (ErrorsRecover / RunRecoverable). crashed marks ranks
	// that died; crashGen increments on every new death so survivors can reap
	// lazily (Rank.failDeadOps). Plain fields: a fault world declares no
	// footprints, so nothing in it ever runs concurrently.
	crashed  []bool
	crashGen uint64
	// ck is the coordinated-checkpoint barrier state (ckpt.go).
	ck ckptState
	// store receives committed checkpoints; lazily created by the first
	// Checkpoint, or pre-installed by RunRecoverable so it outlives the world.
	store *rec.Store
	// restored, when set before Run, is the snapshot this world resumes from;
	// restoredMap[newRank] is the snapshot rank whose state newRank inherits
	// (nil means identity). Installed by RunRecoverable.
	restored    *rec.Snapshot
	restoredMap []int
	// shrinks tracks in-progress Comm.Shrink agreements by parent context id.
	shrinks map[int]*shrinkSync

	// out-of-band PMI barrier state
	pmiGen     int
	pmiArrived int
	pmiLatest  sim.Time

	// pairs holds the connection state of every rank pair that has been
	// named, keyed by lo<<32|hi. A record is minted by World.pair the first
	// time either end creates its peer record for the other (Rank.peer) — the
	// only caller outside tests — and never removed. pairMu guards the map
	// alone: the records themselves are covered by the claim protocol
	// (pairShared).
	pairMu sync.Mutex
	pairs  map[uint64]*pairShared
	// sameNameIPC counts the ranks per (IPC namespace, hostname): the peers a
	// rank reaches over shared memory on the hostname test alone. Built for the
	// first rank that has to ask (Rank.needsHCA).
	nameIPCOnce sync.Once
	sameNameIPC map[nameIPC]int

	winTable   map[int]*winExchange
	detLock    map[*cluster.Host]sim.Time // per-host lock free-time (LockedDetector ablation)
	ctxCounter int                        // last communicator context id handed out

	bodyStart, bodyEnd []sim.Time
	ran                bool
	depotRefused       uint64 // core.Drain.Refused of this world's drainPools

	// parallel is set in Run when this world installs rank footprints for
	// the engine's conservative epoch dispatch: everything except fault
	// injection qualifies (the injector's plan queries mutate shared state
	// on every channel decision, so those worlds declare nothing and every
	// epoch is one Global group).
	parallel bool
	// serial flips (sticky) when a rank touches job-global tables that the
	// claim protocol does not cover — communicator context ids, RMA window
	// exchange. Every footprint collapses to Global at the next epoch.
	serial atomic.Bool

	// spineTab lists, per host pair (triangular index over hosts), the
	// epoch-dispatch resource ids of every spine switch the fabric's static
	// ECMP routes between the two hosts can book (both directions). Built
	// once in NewWorld from the topology — a pure function of host racks —
	// so footprint enumeration at epoch formation reads only immutable
	// state. Nil for trivial topologies; nil entries for same-rack pairs.
	spineTab [][]sim.Res

	// part is the deployment's split into locality groups, for the
	// collective algorithm selector and the two-level collectives. Built once,
	// by the first rank that asks (World.partition), from Deploy ground truth —
	// never from per-rank capability tables, which can diverge under detector
	// faults.
	partOnce sync.Once
	part     *localityPartition
}

// jobCounter is atomic: worlds are built concurrently by the parallel
// experiment sweep, and the job id only needs uniqueness, not density.
var jobCounter atomic.Int64

// NewWorld builds a job on the given deployment.
func NewWorld(d *cluster.Deployment, opts Options) (*World, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		Eng:        sim.NewEngine(),
		Deploy:     d,
		Opts:       opts,
		shm:        shmem.NewRegistry(),
		jobID:      fmt.Sprintf("job%d", jobCounter.Add(1)),
		winTable:   make(map[int]*winExchange),
		detLock:    make(map[*cluster.Host]sim.Time),
		ctxCounter: worldCtx,
		bodyStart:  make([]sim.Time, d.Size()),
		bodyEnd:    make([]sim.Time, d.Size()),
		rankErrs:   make([]error, d.Size()),
		crashed:    make([]bool, d.Size()),
		shrinks:    make(map[int]*shrinkSync),
		pairs:      make(map[uint64]*pairShared),
	}
	w.fabric = ib.NewFabric(w.Eng, &w.Opts.Params, d.Cluster)
	if err := w.fabric.SetTopology(opts.Topology); err != nil {
		return nil, err
	}
	if !opts.Topology.Trivial() {
		hosts := d.Cluster.Spec.Hosts
		w.spineTab = make([][]sim.Res, hosts*(hosts-1)/2)
		var hops []int
		for hi := 1; hi < hosts; hi++ {
			for lo := 0; lo < hi; lo++ {
				hops = w.fabric.SpineHops(lo, hi, hops[:0])
				if len(hops) == 0 {
					continue // same rack: never leaves the leaf switch
				}
				rs := make([]sim.Res, len(hops))
				for i, id := range hops {
					rs[i] = w.resSpine(id)
				}
				w.spineTab[pairIdx(lo, hi)] = rs
			}
		}
	}
	inj, err := fault.NewInjector(opts.FaultPlan, d.Cluster.Spec.Hosts, d.Size())
	if err != nil {
		return nil, err
	}
	w.inj = inj
	if inj != nil {
		w.fabric.SetFaults(inj, opts.Tunables.RetryCount, opts.Tunables.RetryTimeout)
		w.shm.SetAttachFault(func(env *cluster.Container, name string) error {
			host := env.Host.Index
			if inj.ShmAttachFails(host, name, w.Eng.Now()) {
				return &fault.AttachError{Name: name, Host: host}
			}
			return nil
		})
	}
	if opts.Profile {
		w.Prof = profile.New(d.Size())
	}
	for i := 0; i < d.Size(); i++ {
		w.ranks = append(w.ranks, newRank(w, i))
	}
	return w, nil
}

// Size is the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Run executes body on every rank and drives the simulation to completion.
// The returned error aggregates every recorded rank failure (each wrapped in
// a *RankError naming its rank) plus any engine-level failure such as a
// deadlock report, joined with errors.Join; nil when all ranks succeed.
// A World is single-shot: a second Run returns an error.
func (w *World) Run(body func(r *Rank) error) error {
	return w.run(false, func(int) Program { return &bodyProg{body: body} })
}

// run starts every rank on the rankMachine lifecycle (machine.go) and drives
// the engine. A machine world hands the lifecycle to the engine as a
// sim.Machine; a blocking one steps it from a goroutine-backed process,
// where Park, Advance and YieldRegroup block for real: the lifecycle's two
// PMI waits come back with sim.More once per wake, and the body is one step.
func (w *World) run(machine bool, mk func(rank int) Program) error {
	if w.ran {
		return fmt.Errorf("mpi: World run twice; build a fresh World per job")
	}
	w.ran = true
	if w.Opts.Record != nil {
		w.installTracer()
	}
	// Ranks declare footprints in every world with no observer of global
	// event order — at any width, including one. Group formation is decided by
	// event times and footprints alone, so a width-1 run executes the exact
	// same groups (serially, in group-index order) as a width-N run: worker
	// count can never change simulated results. The fault injector's queries
	// mutate shared plan state, so those worlds declare nothing: every epoch
	// is one Global group dispatched in global event order (which also keeps
	// Eng.Now()-based fault timestamps exact). Tracing does NOT serialize:
	// records ride the engine's emitter, buffered per epoch group and flushed
	// in deterministic (t, group, seq) commit order.
	// Non-trivial fabric topologies do not serialize either: every spine
	// switch a cross-rack pair's ECMP routes can book is a declared resource
	// (resSpine) in both ranks' footprints, so groups sharing a spine merge.
	w.parallel = w.inj == nil
	for _, r := range w.ranks {
		r.machine = machine
		m := &rankMachine{w: w, r: r, prog: mk(r.rank)}
		name := fmt.Sprintf("rank%d", r.rank)
		var p *sim.Proc
		if machine {
			p = w.Eng.GoMachine(name, m)
		} else {
			p = w.Eng.Go(name, func(p *sim.Proc) {
				for m.Step(p) == sim.More {
				}
			})
		}
		if w.parallel {
			p.SetRes(w.resRank(r.rank))
			p.SetFootprint(r.footprint)
		}
	}
	return w.finishRun(w.Eng.Run())
}

// finishRun folds the engine error and the per-rank errors into the value Run
// (and RunMachine) returns, and leaves the world's free buffers to the next
// one: the engine has stopped, so nothing of this world touches a pool again.
func (w *World) finishRun(engErr error) error {
	var errs []error
	// rankErrs is indexed by rank, so iterating it in order makes the joined
	// error rank-sorted regardless of the virtual-time order the failures were
	// recorded in — the aggregate is identical at every dispatch width.
	for _, re := range w.rankErrs {
		if re != nil {
			errs = append(errs, re)
		}
	}
	if engErr != nil {
		// Under ErrorsAreFatal the engine error IS the first recorded rank
		// error; don't report it twice.
		dup := false
		for _, re := range errs {
			if errors.Is(engErr, re) {
				dup = true
				break
			}
		}
		if !dup {
			errs = append(errs, engErr)
		}
	}
	w.drainPools(len(errs) == 0)
	if w.Prof != nil {
		w.Prof.Sim = w.SimStats()
	}
	// A sole failure is returned as-is so callers can type-assert on it
	// (errors.Join would wrap even a single error).
	if len(errs) == 1 {
		return errs[0]
	}
	return errors.Join(errs...)
}

// drainPools hands every buffer on a free list of this world — rank homes,
// ring directions, device pools and QP wire lists — to the process-wide depot
// (core/pool.go), in rank and ring-creation order so that what a full depot
// drops does not depend on map order. Buffers an unfinished or failed
// operation still references are on no list and stay with the GC. clean says
// that neither the engine nor a rank reported an error. Under the poolStrict
// test hook (core.SetPoolStrict) a world that ended cleanly must also satisfy
// the lent-buffer conservation law, and Rank.Release poisons the handles it
// is given instead of recycling them: a stale alias would corrupt a different
// world, so violations panic where they are found.
func (w *World) drainPools(clean bool) {
	var dr core.Drain
	for _, r := range w.ranks {
		dr.Home(&r.pools.buf)
		for _, ps := range r.localPairs {
			dr.Dir(&ps.ring.out(r.rank).snaps)
		}
	}
	w.fabric.DrainPools(&dr)
	w.depotRefused = uint64(dr.Refused)
	if core.PoolStrict() && clean {
		if err := dr.Unbalanced(); err != nil {
			panic(fmt.Sprintf("mpi: %s ended cleanly with pool buffers unaccounted for: %v", w.jobID, err))
		}
	}
}

// failRank records a rank failure. Under ErrorsAreFatal it aborts the whole
// simulation with the typed error (first failure wins, as in MPI_Abort);
// under ErrorsReturn the rank simply stops and peers either complete, observe
// failed requests, or surface in the engine's deadlock report. Under
// ErrorsRecover a *CrashError additionally marks the rank dead so survivors
// observe the failure (markCrashed); other errors behave as ErrorsReturn.
func (w *World) failRank(r *Rank, cause error) {
	re := &RankError{Rank: r.rank, At: r.p.Now(), Err: cause}
	if w.rankErrs[r.rank] == nil {
		w.rankErrs[r.rank] = re
	}
	if w.Opts.ErrHandler == ErrorsAreFatal {
		r.p.Fail(re)
		return
	}
	if w.Opts.ErrHandler == ErrorsRecover {
		var ce *CrashError
		if errors.As(cause, &ce) {
			w.markCrashed(r)
		}
	}
}

// markCrashed flags a dead rank and propagates the observation: every live
// rank is woken so its next waitStep pass reaps operations bound to the
// casualty, any in-progress Comm.Shrink agreements re-evaluate their member
// sets, and an in-flight checkpoint barrier aborts. Only fault worlds crash
// ranks, and their every epoch is one group, so plain field writes are safe.
func (w *World) markCrashed(r *Rank) {
	if w.crashed[r.rank] {
		return
	}
	w.crashed[r.rank] = true
	w.crashGen++
	now := r.p.Now()
	for _, other := range w.ranks {
		if other != r && !w.crashed[other.rank] {
			other.p.UnparkAt(now)
		}
	}
	w.checkShrinks(now)
	w.abortCkpt(now)
}

// rankDead reports whether a rank has crashed.
func (w *World) rankDead(i int) bool { return w.crashed[i] }

// anyCrashed reports whether any rank has died.
func (w *World) anyCrashed() bool { return w.crashGen != 0 }

// liveCount counts surviving ranks.
func (w *World) liveCount() int {
	n := 0
	for _, dead := range w.crashed {
		if !dead {
			n++
		}
	}
	return n
}

// deadRanksSorted lists crashed ranks in ascending order.
func (w *World) deadRanksSorted() []int {
	var dead []int
	for i, d := range w.crashed {
		if d {
			dead = append(dead, i)
		}
	}
	return dead
}

// SimStats snapshots the job's scheduler and pool statistics (host-time
// diagnostics; none of it influences simulated results).
func (w *World) SimStats() profile.SimStats {
	es := w.Eng.Stats()
	// Requests a per-direction list served (ring directions, QP wire lists)
	// are counted as hits of the sender's rank or device pool, so these sums
	// cover them.
	var bc, oc core.PoolCounters
	for _, r := range w.ranks {
		bc.Add(r.pools.buf.Counters())
		oc.Add(r.pools.counters())
	}
	bc.Add(w.fabric.PoolCounters())
	ps := simStatsOf(es)
	ps.BufPool = bc
	ps.DepotRefused = w.depotRefused
	ps.ObjPool = oc
	return ps
}

// Digest is a SHA-256, in hex, over what a finished run simulated: each
// rank's body start and finish times and its error, the per-rank profile when
// Opts.Profile is on, and SimStats less what says how the host ran the job —
// BarrierStalls (the dispatch width), BufPool.Depot and DepotRefused (what
// earlier worlds left in the depot) and ObjPool.Hits (poolStrict does not
// recycle released handles). A job has one digest at every width, traced or
// not, on any depot.
func (w *World) Digest() string {
	h := sha256.New()
	for i := range w.ranks {
		fmt.Fprintf(h, "rank %d %d %d %v\n", i, w.bodyStart[i], w.bodyEnd[i], w.rankErrs[i])
	}
	if w.Prof != nil {
		calls := w.Prof.TopCalls()
		for _, rp := range w.Prof.Ranks {
			fmt.Fprintf(h, "prof %d %d %d %d %d %d", rp.Rank, rp.TotalMPI, rp.AppTime, rp.Channels, rp.Coll, rp.Faults)
			for _, c := range calls {
				fmt.Fprintf(h, " %s=%d", c, rp.MPITime[c])
			}
			fmt.Fprintln(h)
		}
	}
	st := w.SimStats()
	st.BarrierStalls, st.BufPool.Depot, st.DepotRefused, st.ObjPool.Hits = 0, 0, 0, 0
	fmt.Fprintf(h, "sim %+v\n", st)
	return hex.EncodeToString(h.Sum(nil))
}

// simStatsOf maps engine counters onto the profiler's SimStats (pool counters
// are filled in by the caller, which knows where its pools live).
func simStatsOf(es sim.Stats) profile.SimStats {
	s := profile.SimStats{
		Dispatched:      es.Dispatched,
		Resumes:         es.Resumes,
		StaleWakes:      es.StaleWakes,
		CoalescedWakes:  es.CoalescedWakes,
		MaxHeapDepth:    es.MaxHeapDepth,
		ParallelBatches: es.ParallelBatches,
		MaxBatchWidth:   es.MaxBatchWidth,
		BarrierStalls:   es.BarrierStalls,
		RegroupYields:   es.RegroupYields,
		NarrowedPairs:   es.NarrowedPairs,
		PhaseRewidens:   es.PhaseRewidens,
		PeakProcBytes:   es.PeakProcBytes,
	}
	if es.ArenaSlots > 0 {
		s.ArenaUtilization = float64(es.ArenaPeakLive) / float64(es.ArenaSlots)
	}
	return s
}

// MaxBodyTime is the longest per-rank span between the post-init barrier
// and body return — the job's wall time as the paper's figures report it.
func (w *World) MaxBodyTime() sim.Time {
	var m sim.Time
	for i := range w.bodyEnd {
		if d := w.bodyEnd[i] - w.bodyStart[i]; d > m {
			m = d
		}
	}
	return m
}

// BodyTime reports one rank's span.
func (w *World) BodyTime(rank int) sim.Time { return w.bodyEnd[rank] - w.bodyStart[rank] }

// pmiArrive records one rank's arrival at the PMI barrier — the out-of-band
// bootstrap barrier of MPI_Init, notably between publishing membership bytes
// into the container list and snapshotting it — and returns the generation
// the rank waits on: the barrier is released once w.pmiGen has moved past it,
// which rankMachine polls, parking in between. The last arriver performs the
// release, waking every other rank and advancing its own clock to the release
// time.
func (w *World) pmiArrive(r *Rank) (gen int) {
	gen = w.pmiGen
	w.pmiArrived++
	if t := r.p.Now(); t > w.pmiLatest {
		w.pmiLatest = t
	}
	if w.pmiArrived == len(w.ranks) {
		release := w.pmiLatest + w.Opts.Params.PMIBarrierLatency
		w.pmiArrived = 0
		w.pmiLatest = 0
		w.pmiGen++
		for _, other := range w.ranks {
			if other != r {
				other.p.UnparkAt(release)
			}
		}
		if release > r.p.Now() {
			r.p.Advance(release - r.p.Now())
		}
	}
	return gen
}

// pairShared is the per-pair connection state, shared by the pair's two
// ranks and created on first contact.
//
// Who may do what:
//
//   - Create: World.pair, under pairMu, called from Rank.peer in the naming
//     rank's own process (execution context). Both ends may name the pair in
//     the same epoch from different groups; the mutex makes them agree on one
//     record, and a new record is all zero, so which end minted it cannot be
//     observed.
//   - Write, execution context: the per-side words (claims, lastEpoch, hca,
//     listed) only by their own side, from its own process; everything else
//     (ring, qps, shmErr, cmaDead, rndv) only from a group that owns both
//     ranks' resources, which the claim protocol (Rank.claimPair) arranges
//     before the first cross-rank touch.
//   - Read, formation context (Rank.footprint, decayPairs, pairIdle): any
//     field, through the touchedPairs pointers of either end — after the
//     epoch barrier, so every execution-context write is visible. Formation
//     writes only listed[own side].
//
// lo and hi never change.
type pairShared struct {
	lo, hi int32
	ring   *shmRing
	qps    [2]*ib.QP // [0] owned by lo, [1] owned by hi

	// shmErr is the sticky ring-attach failure: once an attach fails, the
	// pair's SHM/CMA channels are dead and traffic degrades to the HCA.
	shmErr error

	// claims counts each side's in-flight requests that may touch the peer
	// rank's state (indexed by side). While either count is non-zero both
	// ranks' footprints keep the pair merged into one epoch group.
	claims [2]int
	// lastEpoch records, per side, the engine epoch of that side's most
	// recent claim or release — the anchor adaptive footprint decay counts
	// its window from (Rank.footprint). Per-side words, written only by the
	// owning side during execution and read at formation.
	lastEpoch [2]uint64
	// rndv tracks this pair's in-flight HCA rendezvous transfers by msgID
	// (sharded from the old job-global table so concurrent pairs never
	// share a map).
	rndv map[uint64]rndvState

	// cmaDead marks the pair's CMA channel failed; rendezvous transfers
	// degrade to SHM streaming.
	cmaDead bool
	// hca records, per side, that the pair has used the HCA channel: the
	// footprint then also spans both hosts' port resources (fabric events
	// and device pools). Per-side bools so concurrent groups never write
	// the same word.
	hca [2]bool
	// listed marks, per side, that the pair is on that rank's touchedPairs
	// list (footprint enumeration).
	listed [2]bool
}

// side maps a member rank to its claims/hca/listed index.
func (ps *pairShared) side(rank int) int {
	if rank == int(ps.hi) {
		return 1
	}
	return 0
}

// other returns the pair member that is not rank.
func (ps *pairShared) other(rank int) int {
	if rank == int(ps.lo) {
		return int(ps.hi)
	}
	return int(ps.lo)
}

// shmDead reports whether the pair's shared-memory ring is unusable.
func (ps *pairShared) shmDead() bool { return ps.shmErr != nil }

// pairIdx is the triangular index of an unordered pair (of hosts).
func pairIdx(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return b*(b-1)/2 + a
}

// pair returns the shared state of a rank pair, minting it the first time
// either end asks. Ranks reach it through their peer records (Rank.peer),
// which call this once per (rank, peer); nothing on a message path does.
func (w *World) pair(a, b int) *pairShared {
	if a > b {
		a, b = b, a
	}
	key := uint64(a)<<32 | uint64(b)
	w.pairMu.Lock()
	ps := w.pairs[key]
	if ps == nil {
		ps = &pairShared{lo: int32(a), hi: int32(b)}
		w.pairs[key] = ps
	}
	w.pairMu.Unlock()
	return ps
}

// nameIPC identifies the environments that pass both the hostname locality
// test and the shared-IPC prerequisite with one another: same hostname, same
// IPC namespace (which implies the same host).
type nameIPC struct {
	ipc      *cluster.Namespace
	hostname string
}

func nameIPCOf(env *cluster.Container) nameIPC {
	return nameIPC{ipc: env.Namespace(cluster.IPC), hostname: env.Hostname()}
}

// resRank is the epoch-dispatch resource id for a rank's private state.
func (w *World) resRank(rank int) sim.Res { return sim.Res(1 + rank) }

// resHost is the resource id for a host's fabric port and device pools.
func (w *World) resHost(host int) sim.Res { return sim.Res(1 + len(w.ranks) + host) }

// resSpine is the resource id for one fabric spine switch's next-free word
// (ib.Topology ECMP contention state), identified by its stage-major index
// (stage*SpinesPerStage + idx). Spine ids sit above the rank and host ranges.
func (w *World) resSpine(spine int) sim.Res {
	return sim.Res(1 + len(w.ranks) + w.Deploy.Cluster.Spec.Hosts + spine)
}

// spineRes lists the spine-switch resources the fabric routes between two
// hosts can book; empty unless the topology is non-trivial and the hosts sit
// in different racks. Read-only after NewWorld — safe from any epoch group
// and from footprint callbacks at formation.
func (w *World) spineRes(hostA, hostB int) []sim.Res {
	if w.spineTab == nil || hostA == hostB {
		return nil
	}
	return w.spineTab[pairIdx(hostA, hostB)]
}

// qpFor returns r's QP to a peer, establishing the RC connection on demand
// (MVAPICH2 on-demand connection management). The setup cost is charged to
// the initiating rank once per pair.
func (r *Rank) qpFor(pr *peerRec) *ib.QP {
	ps := pr.ps
	idx := ps.side(r.rank)
	if ps.qps[idx] == nil {
		peer := int(pr.rank)
		other := r.w.ranks[peer]
		if r.dev == nil || other.dev == nil {
			r.p.Fatalf("HCA channel needed for ranks %d<->%d but device unavailable (dev=%v peer=%v)",
				r.rank, peer, r.devErr, other.devErr)
		}
		// Publish the pair BEFORE charging setup time: Advance may yield to
		// the scheduler, and the peer must not race through the nil check
		// and build a second connection.
		qa := r.dev.CreateQP(r.cq, r.cq)
		qb := other.dev.CreateQP(other.cq, other.cq)
		qa.EnableAutoRecv()
		qb.EnableAutoRecv()
		if err := ib.Connect(qa, qb); err != nil {
			r.p.Fatalf("connect: %v", err)
		}
		// Each side records its own QP→peer routing (rank-private maps so
		// completions resolve their pair without any job-global table).
		r.qpPeer[qa] = peer
		other.qpPeer[qb] = r.rank
		ps.qps[idx], ps.qps[1-idx] = qa, qb
		r.p.Advance(r.w.Opts.Params.IBConnectSetup)
	}
	return ps.qps[idx]
}

// ringFor returns r's view of the shared-memory ring to a peer, creating and
// attaching it on demand. It is only called for pairs with a shared IPC
// namespace, so a failed attach is either an injected fault — the error is
// returned (sticky: the pair's SHM channel stays dead) and the caller
// degrades to the HCA channel — or a runtime bug surfaced to the caller.
func (r *Rank) ringFor(pr *peerRec) (*shmRing, error) {
	ps := pr.ps
	if ps.ring == nil {
		if ps.shmErr != nil {
			return nil, ps.shmErr
		}
		name := fmt.Sprintf("cmpi.ring.%s.%d-%d", r.w.jobID, ps.lo, ps.hi)
		// Two directions, each with a full SMPI_LENGTH_QUEUE of capacity.
		seg, err := r.w.shm.CreateOrAttach(r.env, name, 2*r.w.Opts.Tunables.SMPLengthQueue)
		if err != nil {
			ps.shmErr = fmt.Errorf("shm ring %d<->%d: %w", ps.lo, ps.hi, err)
			return nil, ps.shmErr
		}
		// Publish the ring BEFORE charging attach time: Advance may yield,
		// and the peer must not race the nil check into a second ring.
		ps.ring = newShmRing(r.w, ps, seg)
		r.w.ranks[ps.lo].localPairs = append(r.w.ranks[ps.lo].localPairs, ps)
		r.w.ranks[ps.hi].localPairs = append(r.w.ranks[ps.hi].localPairs, ps)
		r.p.Advance(r.w.Opts.Params.ShmAttachOverhead)
	}
	return ps.ring, nil
}

// newMsgID mints a job-unique rendezvous identifier without shared state:
// the minting rank rides in the high bits over a rank-local sequence.
func (r *Rank) newMsgID() uint64 {
	r.msgSeq++
	return uint64(r.rank+1)<<40 | r.msgSeq
}

// rndvState tracks one in-flight HCA rendezvous transfer. The paper's
// runtime exchanges buffer addresses and rkeys inside RTS/CTS packets; the
// simulation exchanges a msgID and keeps the decoded state here.
type rndvState struct {
	sreq *Request
	rreq *Request
	mr   *ib.MR // receiver's registered landing buffer
}
