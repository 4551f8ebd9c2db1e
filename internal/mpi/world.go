package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
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
	"cmpi/internal/trace"
)

// World is one MPI job: the deployment it runs on, the substrates it uses,
// and its ranks. A fresh World is built per job (NewWorld) and driven once
// (Run). What a finished world reports — SimStats, Digest, body times, the
// profile — it keeps itself: a world that ended cleanly hands its ranks on
// to the next one (World.recycle).
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
	// ranks is nil once a clean run has handed them on (recycle); totals
	// keeps what is read of them after the run.
	ranks  []*Rank
	totals rankTotals
	// machines holds each rank's lifecycle (World.run), handed on with the
	// ranks.
	machines []rankMachine
	jobID    string
	// detSeg names the job's locality-detector segment, built once for all
	// ranks.
	detSeg string

	// inj is the job's fault injector (nil without a FaultPlan). All query
	// methods tolerate nil.
	inj *fault.Injector
	// rankErrs records each rank's failure (as *RankError) for aggregation,
	// indexed by rank.
	rankErrs []error

	// Recovery state (ErrorsReturn / RunRecoverable). crashed marks ranks
	// that died; crashGen increments on every new death so survivors can reap
	// lazily (Rank.failDeadOps).
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

	// snaps holds each container list's locality, scanned once for the
	// ranks that read it (Rank.initPost).
	snaps core.Snapshots
	// sameNameIPC counts the ranks per (IPC namespace, hostname): the peers a
	// rank reaches over shared memory on the hostname test alone. Built for the
	// first rank that has to ask (Rank.needsHCA).
	sameNameIPC map[nameIPC]int

	winTable   map[int]*winExchange
	detLock    map[*cluster.Host]sim.Time // per-host lock free-time (LockedDetector ablation)
	ctxCounter int                        // last communicator context id handed out

	bodyStart, bodyEnd []sim.Time
	ran                bool
	depotRefused       uint64 // core.Drain.Refused of this world's drainPools

	// part is the deployment's split into locality groups, for the
	// collective algorithm selector and the two-level collectives. Built once,
	// by the first rank that asks (World.partition), from Deploy ground truth —
	// never from per-rank capability tables, which can diverge under detector
	// faults.
	part *localityPartition
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
		Eng:        newEngine(),
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
	}
	w.detSeg = core.LocalitySegmentPrefix + w.jobID
	w.shm.SetStore(func(n int) []byte { return takeLen(segmentKind, n) })
	w.fabric = ib.NewFabric(w.Eng, &w.Opts.Params, d.Cluster)
	if err := w.fabric.SetTopology(opts.Topology); err != nil {
		return nil, err
	}
	inj, err := fault.NewInjector(opts.FaultPlan, d.Cluster.Spec.Hosts, d.Size())
	if err != nil {
		return nil, err
	}
	w.inj = inj
	if inj != nil {
		w.fabric.SetFaults(inj, opts.Tunables.RetryCount, opts.Tunables.RetryTimeout)
		w.shm.SetAttachFault(func(env *cluster.Container, name string) error {
			host, now := env.Host.Index, w.Eng.Now()
			if !inj.ShmAttachFails(host, name, now) {
				return nil
			}
			if tr := w.Opts.Record; tr != nil {
				tr.Add(trace.Record{T: now, Op: trace.OpAttachFail, Path: trace.PathNone, Rank: -1, Peer: host})
			}
			return &fault.AttachError{Name: name, Host: host}
		})
	}
	if opts.Profile {
		w.Prof = profile.New(d.Size())
	}
	w.ranks = takeLen(ranksKind, d.Size())
	for i := range w.ranks {
		w.ranks[i] = newRank(w, i)
	}
	return w, nil
}

// Size is the number of ranks.
func (w *World) Size() int { return w.Deploy.Size() }

// Run executes body on every rank and drives the simulation to completion.
// The returned error aggregates every recorded rank failure (each wrapped in
// a *RankError naming its rank) plus any engine-level failure such as a
// deadlock report, joined with errors.Join; nil when all ranks succeed.
// A World is single-shot: a second Run returns an error.
//
// A *Rank is valid until Run returns, as an MPI handle is until
// MPI_Finalize: a world that ended cleanly hands its ranks, zeroed, to the
// next world of the process. Read what you need of one inside the body; the
// world's own methods answer for the run afterwards.
func (w *World) Run(body func(r *Rank) error) error {
	return w.run(body, nil)
}

// run starts every rank on the rankMachine lifecycle (machine.go) and drives
// the engine. A machine world (mk set) hands the lifecycle to the engine as a
// sim.Machine; a blocking one steps it from a goroutine-backed process,
// where Park and Advance block for real: the lifecycle's two
// PMI waits come back with sim.More once per wake, and the body is one step.
func (w *World) run(body func(r *Rank) error, mk func(rank int) Program) error {
	if w.ran {
		return fmt.Errorf("mpi: World run twice; build a fresh World per job")
	}
	w.ran = true
	if tr := w.Opts.Record; tr != nil {
		tr.Begin(w.Size(), w.Opts.Params.ShmCellPayload)
		w.fabric.SetRecorder(tr)
	}
	w.Eng.Grow(len(w.ranks))
	names := rankNames(len(w.ranks))
	w.machines = takeLen(machinesKind, len(w.ranks))
	for _, r := range w.ranks {
		m := &w.machines[r.rank]
		*m = rankMachine{w: w, r: r, body: bodyProg{body: body}}
		name := names[r.rank]
		if mk != nil {
			m.prog = mk(r.rank)
			w.Eng.GoMachine(name, m)
		} else {
			m.prog = &m.body
			w.Eng.Go(name, func(p *sim.Proc) {
				for m.Step(p) == sim.More {
				}
			})
		}
	}
	return w.finishRun(w.Eng.Run())
}

// names holds the process names of World.run and RunScale, "rank0" up, for
// every world of the process: the engine shows a name only in panic and
// deadlock text.
var names struct {
	sync.Mutex
	list []string
}

// rankNames returns the names of ranks 0 to n-1. A table too short for n is
// replaced by one of exactly n names, and no table is written once made, so
// worlds running side by side may read theirs while another world extends
// it.
func rankNames(n int) []string {
	names.Lock()
	defer names.Unlock()
	if have := len(names.list); have < n {
		list := make([]string, n)
		copy(list, names.list)
		for i := have; i < n; i++ {
			list[i] = "rank" + strconv.Itoa(i)
		}
		names.list = list
	}
	return names.list[:n]
}

// finishRun folds the engine error and the per-rank errors into the value Run
// (and RunMachine) returns, and leaves the world's free buffers and objects
// to the next one: the engine has stopped, so nothing of this world touches a
// pool again.
func (w *World) finishRun(engErr error) error {
	var errs []error
	// rankErrs is indexed by rank, so iterating it in order makes the joined
	// error rank-sorted regardless of the virtual-time order the failures were
	// recorded in.
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

// drainPools hands every buffer and object on a free list of this world —
// rank homes (whose byte pools the ranks' devices share), ring directions,
// then the devices' QP wire lists, event records and CQ batches, each list
// once — to the process-wide depot (core/pool.go), in rank, ring-creation and
// device order so that what a full depot drops does not depend on map order,
// holding the depot's lock once for all of it. What an unfinished or failed
// operation still references is on no list and stays with the GC. clean
// says that neither the engine nor a rank reported an error; what the
// messages of a clean world that no rank received still hold goes back first
// (Rank.dropUndelivered), and the world keeps what is read of its ranks
// after the run (totals) before it hands on its connection state, its ranks
// and its engine's arrays (recycle, sim.Engine.Recycle). Under the
// poolStrict test hook (core.SetPoolStrict) a world that ended cleanly must
// also satisfy the lent-buffer conservation law and count no ring packet
// left toward any rank, and Rank.Release poisons the handles it is given
// instead of recycling them: a stale alias would corrupt a different world,
// so violations panic where they are found.
func (w *World) drainPools(clean bool) {
	if clean {
		for _, r := range w.ranks {
			r.dropUndelivered()
		}
	}
	var dr core.Drain
	w.drain(&dr, clean)
	w.depotRefused = uint64(dr.Refused)
	if core.PoolStrict() && clean {
		if err := dr.Unbalanced(); err != nil {
			panic(fmt.Sprintf("mpi: %s ended cleanly with pool buffers unaccounted for: %v", w.jobID, err))
		}
	}
}

// drain is drainPools' part under the depot's lock.
func (w *World) drain(dr *core.Drain, clean bool) {
	dr.Lock()
	defer dr.Unlock()
	for _, r := range w.ranks {
		r.pools.drain(dr)
		for _, ps := range r.localPairs {
			out := ps.out(r.rank)
			dr.Dir(&out.snaps)
			out.pkts.Drain(dr)
			out.ops.Drain(dr)
		}
	}
	w.fabric.DrainPools(dr)
	if !clean {
		return
	}
	if core.PoolStrict() {
		for _, r := range w.ranks {
			if r.inbound != 0 {
				panic(fmt.Sprintf("mpi: %s ended cleanly with %d ring packets counted toward rank %d", w.jobID, r.inbound, r.rank))
			}
		}
	}
	w.totals = totalsOf(w.ranks)
	w.recycle(dr)
	engineKind.Give(dr, w.Eng.Recycle())
}

// rankTotals is what a world keeps of its ranks for after its run: their
// pool counters, summed per kind, and how many peer records they held.
type rankTotals struct {
	buf, pkts, ops, envs, reqs core.PoolCounters
	peerRecs                   int
}

// objs sums the object lists' counters (SimStats.ObjPool).
func (t *rankTotals) objs() core.PoolCounters {
	var c core.PoolCounters
	c.Add(t.pkts)
	c.Add(t.ops)
	c.Add(t.envs)
	c.Add(t.reqs)
	return c
}

// totalsOf adds up the ranks' counters.
func totalsOf(ranks []*Rank) rankTotals {
	var t rankTotals
	for _, r := range ranks {
		t.buf.Add(r.pools.buf.Counters())
		t.pkts.Add(r.pools.pkts.Counters())
		t.ops.Add(r.pools.ops.Counters())
		t.envs.Add(r.pools.envs.Counters())
		t.reqs.Add(r.pools.reqs.Counters())
		t.peerRecs += r.peers.n
	}
	return t
}

// recycle hands what a world that ended cleanly built to the depot, once
// drainPools has emptied the lists inside it: each pair with its ring, each
// rank's peer records with their send queues, the index over them and the
// list of its rings, the bytes of the shared segments (the detector's
// container lists), the fabric's devices, CQs and QPs (ib.Fabric.Recycle),
// the library's programs with their steppers (allreduceProg.recycle), and
// last the ranks themselves with their detectors, zeroed but for the arrays
// of their queues and home lists, the array that listed them and that of
// their lifecycles. The next world's constructors take them back (NewWorld,
// World.run, Rank.peer, peerTable.add, ringFor, enqueueOp, AllreduceProgram,
// mallreduce.step, core.AttachDetector). The world keeps no rank: drain took
// their totals first.
func (w *World) recycle(dr *core.Drain) {
	for _, r := range w.ranks {
		for pr := r.peers.first; pr != nil; {
			next := pr.next
			ps := pr.ps
			if ps.ends--; ps.ends == 0 {
				if g := ps.ring; g != nil {
					g.reset()
					ringKind.Give(dr, g)
				}
				*ps = pairShared{}
				pairKind.Give(dr, ps)
			}
			if q := pr.q; q != nil {
				*q = peerQueues{sendQ: core.Cleared(q.sendQ), finWait: core.Cleared(q.finWait)}
				queuesKind.Give(dr, q)
			}
			*pr = peerRec{}
			peerKind.Give(dr, pr)
			pr = next
		}
		if idx := r.peers.idx; idx != nil {
			indexKind.Give(dr, core.Cleared(idx))
		}
		if cap(r.localPairs) > 0 {
			localPairsKind.Give(dr, core.Cleared(r.localPairs))
		}
	}
	w.shm.Release(func(b []byte) { segmentKind.Give(dr, core.Cleared(b)) })
	w.fabric.Recycle(dr)
	for i := range w.machines {
		if g, ok := w.machines[i].prog.(*allreduceProg); ok {
			g.recycle(dr)
		}
	}
	// Last rank first: the depot hands out its newest first, so the next
	// world's rank i takes this one's, with arrays that fit its part.
	for i := len(w.ranks) - 1; i >= 0; i-- {
		r := w.ranks[i]
		if r.det != nil {
			r.det.Recycle(dr)
			r.loc.Recycle(dr)
		}
		*r = Rank{
			posted:     matchQ[Request]{buf: core.Cleared(r.posted.buf)},
			unexpected: matchQ[envelope]{buf: core.Cleared(r.unexpected.buf)},
			streams:    core.Cleared(r.streams),
			sendDsts:   core.Cleared(r.sendDsts),
			pools:      r.pools.kept(),
		}
		rankKind.Give(dr, r)
	}
	ranksKind.Give(dr, core.Cleared(w.ranks))
	machinesKind.Give(dr, core.Cleared(w.machines))
	w.ranks, w.machines, w.snaps = nil, nil, core.Snapshots{}
}

// The depot's lists of what a clean world hands on (recycle) and the next
// one's constructors take.
var (
	rankKind       = core.NewKind[*Rank]()
	ranksKind      = core.NewKind[[]*Rank]()
	machinesKind   = core.NewKind[[]rankMachine]()
	pairKind       = core.NewKind[*pairShared]()
	ringKind       = core.NewKind[*shmRing]()
	peerKind       = core.NewKind[*peerRec]()
	queuesKind     = core.NewKind[*peerQueues]()
	indexKind      = core.NewKind[[]*peerRec]()
	localPairsKind = core.NewKind[[]*pairShared]()
	segmentKind    = core.NewKind[[]byte]()
	engineKind     = core.NewKind[*sim.Arrays]()
)

// takeLen returns n zero entries: on an array of kind k that an earlier world
// left in the depot when that one is long enough, else a new one.
func takeLen[E any](k core.Kind[[]E], n int) []E {
	if a, ok := k.Take(); ok && cap(a) >= n {
		return a[:n]
	}
	return make([]E, n)
}

// newEngine returns an engine on the arrays the last engine to end handed to
// the depot, when it holds any.
func newEngine() *sim.Engine {
	a, _ := engineKind.Take()
	return sim.NewEngineOn(a)
}

// failRank records a rank failure. Under ErrorsAreFatal it aborts the whole
// simulation with the typed error (first failure wins, as in MPI_Abort);
// under ErrorsReturn the rank simply stops and peers either complete, observe
// failed requests, or surface in the engine's deadlock report, and a
// *CrashError also marks the rank dead so survivors observe the failure
// (markCrashed).
func (w *World) failRank(r *Rank, cause error) {
	re := &RankError{Rank: r.rank, At: r.p.Now(), Err: cause}
	if w.rankErrs[r.rank] == nil {
		w.rankErrs[r.rank] = re
	}
	if w.Opts.ErrHandler == ErrorsAreFatal {
		r.p.Fail(re)
		return
	}
	var ce *CrashError
	if errors.As(cause, &ce) {
		w.markCrashed(r)
	}
}

// markCrashed flags a dead rank and propagates the observation: every live
// rank is woken so its next waitStep pass reaps operations bound to the
// casualty, any in-progress Comm.Shrink agreements re-evaluate their member
// sets, and an in-flight checkpoint barrier aborts.
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
	// are counted as hits of the sender's rank pool, which its device shares,
	// so these sums cover them.
	t := w.totals
	if w.ranks != nil {
		t = totalsOf(w.ranks)
	}
	ps := simStatsOf(es)
	ps.BufPool = t.buf
	ps.DepotRefused = w.depotRefused
	ps.ObjPool = t.objs()
	return ps
}

// Digest is a SHA-256, in hex, over what a finished run simulated: each
// rank's body start and finish times and its error, the per-rank profile when
// Opts.Profile is on, and the engine counters of SimStats — not the pool
// counters or DepotRefused, which say how the host ran the job. A job has one
// digest traced or not, on any depot.
func (w *World) Digest() string {
	h := sha256.New()
	for i := range w.bodyStart {
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
	st.BufPool, st.ObjPool, st.DepotRefused = core.PoolCounters{}, core.PoolCounters{}, 0
	fmt.Fprintf(h, "sim %+v\n", st)
	return hex.EncodeToString(h.Sum(nil))
}

// simStatsOf maps engine counters onto the profiler's SimStats (pool counters
// are filled in by the caller, which knows where its pools live).
func simStatsOf(es sim.Stats) profile.SimStats {
	return profile.SimStats{
		Dispatched:     es.Dispatched,
		Resumes:        es.Resumes,
		StaleWakes:     es.StaleWakes,
		CoalescedWakes: es.CoalescedWakes,
		MaxHeapDepth:   es.MaxHeapDepth,
	}
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
// ranks and minted by Rank.peer when either end first names the other. lo and
// hi never change.
type pairShared struct {
	lo, hi int32
	ring   *shmRing
	qps    [2]*ib.QP // [0] owned by lo, [1] owned by hi

	// rndv tracks this pair's in-flight HCA rendezvous transfers by msgID.
	rndv map[uint64]rndvState

	// shmDead is the sticky ring-attach failure: once an attach fails, the
	// pair's SHM/CMA channels are dead and traffic degrades to the HCA.
	shmDead bool

	// cmaDead marks the pair's CMA channel failed; rendezvous transfers
	// degrade to SHM streaming.
	cmaDead bool

	// ends counts the peer records that share the pair, one or two, so that
	// World.recycle hands it on once, with the last of them.
	ends uint8
}

// side maps a member rank to its index in qps.
func (ps *pairShared) side(rank int) int {
	if rank == int(ps.hi) {
		return 1
	}
	return 0
}

// other is the member of the pair that is not rank.
func (ps *pairShared) other(rank int) int { return int(ps.lo) + int(ps.hi) - rank }

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
		// Each QP carries its far end's rank, so a completion resolves its
		// pair without any table.
		qa.SetContext(peer)
		qb.SetContext(r.rank)
		ps.qps[idx], ps.qps[1-idx] = qa, qb
		r.p.Advance(r.w.Opts.Params.IBConnectSetup)
	}
	return ps.qps[idx]
}

// ringFor returns r's view of the shared-memory ring to a peer, creating and
// attaching it on demand, or nil when the pair's ring cannot be attached. It
// is only called for pairs with a shared IPC namespace, so only an injected
// fault fails the attach; the failure is sticky (the pair's SHM channel stays
// dead) and the caller degrades to the HCA channel. Both ends reach the ring
// through the pair, never by name, so it takes no entry in the segment table:
// the attach is checked (shmem.Registry.CheckAttach), under the ring's name,
// only where a fault plan could veto it.
func (r *Rank) ringFor(pr *peerRec) *shmRing {
	ps := pr.ps
	if ps.ring == nil {
		if ps.shmDead {
			return nil
		}
		if r.w.inj != nil {
			name := "cmpi.ring." + r.w.jobID + "." + strconv.Itoa(int(ps.lo)) + "-" + strconv.Itoa(int(ps.hi))
			if r.w.shm.CheckAttach(r.env, name) != nil {
				ps.shmDead = true
				return nil
			}
		}
		// Publish the ring BEFORE charging attach time: Advance may yield,
		// and the peer must not race the nil check into a second ring.
		ps.ring = core.TakeOrNew(ringKind)
		for _, end := range [2]*Rank{r.w.ranks[ps.lo], r.w.ranks[ps.hi]} {
			if cap(end.localPairs) == 0 {
				end.localPairs, _ = localPairsKind.Take()
			}
			end.localPairs = append(end.localPairs, ps)
		}
		r.p.Advance(r.w.Opts.Params.ShmAttachOverhead)
	}
	return ps.ring
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
