package mpi

import (
	"errors"
	"fmt"
	"math/bits"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/ib"
	"cmpi/internal/profile"
	"cmpi/internal/sim"
	"cmpi/internal/trace"
)

// Rank is one MPI process. All communication methods must be called from
// the rank's own simulated process (inside the body passed to World.Run).
//
// Per-peer state lives in peer records (peerRec), created on first contact
// and found through the rank's peer table. The table and the records are
// rank-private: only the owning rank's process creates, reads or writes them
// (execution context), except that a sendOp carries its sender's record to the
// receiver, which reads nothing from it but the immutable rank.
type Rank struct {
	w    *World
	p    *sim.Proc
	rank int
	size int

	pl     cluster.Placement
	env    *cluster.Container
	socket int

	dev    *ib.Device
	devErr error
	cq     *ib.CQ

	det *core.Detector
	// loc is the detector's container-list snapshot (one byte per rank, the
	// paper's own cost); zero when the detector is off or fell back.
	loc   core.Locality
	peers peerTable

	// matching state
	posted     matchQ[Request]
	unexpected matchQ[envelope]
	streams    map[streamKey]*envelope // in-flight fragment routing
	winCount   int                     // windows created (collective order index)

	// send-side state
	selfSeq    uint64             // next message seq for self-sends
	sendDsts   []*peerRec         // destinations with queued ops, in first-use order (deterministic iteration)
	wridOps    map[uint64]wridRef // HCA completion routing
	nextWrid   uint64
	collSeq    int
	localPairs []*pairShared

	msgSeq uint64         // rank-local rendezvous id sequence
	qpPeer map[*ib.QP]int // QP → far-end rank (rank-private completion routing)
	pools  worldPools     // per-rank free lists (see pool.go)

	// fault state
	hasCrash  bool
	crashAt   sim.Time // scheduled death (valid when hasCrash)
	reqFailed bool     // some request of this rank completed with an error (failRequest)

	// recovery state (ErrorsRecover)
	crashSeen uint64 // last World.crashGen this rank reaped

	prof *profile.RankProfile
}

// peerRec is what a rank keeps about one peer it has been in contact with:
// created by Rank.peer the first time the rank names the peer — a send, a
// matched rendezvous, an inbound HCA message, a failure to record — and kept
// for the life of the world. Resolved once per request and carried on it
// (Request.pr, sendOp.pr), so the message paths below never look it up again.
type peerRec struct {
	ps      *pairShared // the pair's shared connection state
	sendSeq uint64      // next message seq toward the peer
	q       *peerQueues // ring-bound sends; nil until the first one
	rank    int32       // the peer
	caps    core.PeerCapabilities
	listed  bool // on sendDsts
	dead    bool // behind a broken HCA channel
	reaped  bool // the peer crashed and this rank has processed it
}

// peerQueues holds a destination's ring-bound sends.
type peerQueues struct {
	sendQ   []*sendOp // FIFO of sends that still have packets to push
	finWait []*sendOp // rendezvous sends awaiting FIN
}

// peerTable finds a rank's peer records: recs in first-contact order, idx an
// open-addressed index over them (a slot holds a position in recs plus one,
// zero for empty; at most half full), last the record of the latest lookup.
type peerTable struct {
	recs []*peerRec
	idx  []int32 // length zero or a power of two
	last *peerRec
}

// slot is where the probe for peer starts: the top log2(len(idx)) bits of a
// multiplicative hash.
func (t *peerTable) slot(peer int) int {
	return int(uint32(peer) * 2654435761 >> bits.LeadingZeros32(uint32(len(t.idx)-1)))
}

// find returns the record for peer, or nil if the rank never contacted it.
func (t *peerTable) find(peer int) *peerRec {
	if pr := t.last; pr != nil && int(pr.rank) == peer {
		return pr
	}
	if len(t.idx) == 0 {
		return nil
	}
	mask := len(t.idx) - 1
	for i := t.slot(peer); ; i = (i + 1) & mask {
		at := t.idx[i]
		if at == 0 {
			return nil
		}
		if pr := t.recs[at-1]; int(pr.rank) == peer {
			t.last = pr
			return pr
		}
	}
}

// add lists a new record, growing the index to keep it at most half full.
func (t *peerTable) add(pr *peerRec) {
	t.recs = append(t.recs, pr)
	t.last = pr
	if 2*len(t.recs) <= len(t.idx) {
		t.place(len(t.recs) - 1)
		return
	}
	t.idx = make([]int32, max(8, 2*len(t.idx)))
	for at := range t.recs {
		t.place(at)
	}
}

// place enters recs[at] into the index.
func (t *peerTable) place(at int) {
	mask := len(t.idx) - 1
	i := t.slot(int(t.recs[at].rank))
	for t.idx[i] != 0 {
		i = (i + 1) & mask
	}
	t.idx[i] = int32(at + 1)
}

// peer returns r's record for a peer, creating it — and, if the other end has
// not named the pair yet, the pair's shared state — on first contact.
func (r *Rank) peer(peer int) *peerRec {
	if pr := r.peers.find(peer); pr != nil {
		return pr
	}
	pr := &peerRec{ps: r.w.pair(r.rank, peer), rank: int32(peer), caps: r.capsOf(peer)}
	r.peers.add(pr)
	return pr
}

// capsOf derives the capabilities of the pair (r, peer) from the two
// placements and r's detector snapshot.
func (r *Rank) capsOf(peer int) core.PeerCapabilities {
	penv := r.w.Deploy.Placements[peer].Env
	sameHost := r.env.SameHost(penv)
	return core.PeerCapabilities{
		SameHost:      sameHost,
		SameHostname:  r.env.Hostname() == penv.Hostname(),
		SharedIPC:     sameHost && r.env.SharesNamespace(cluster.IPC, penv),
		SharedPID:     sameHost && r.env.SharesNamespace(cluster.PID, penv),
		DetectedLocal: r.loc.IsLocal(peer),
	}
}

// wridRef routes an HCA completion back to the operation that posted it.
type wridRef struct {
	sreq *Request // send to complete (rendezvous RPUT data)
	win  *Win     // RMA op to retire
}

func newRank(w *World, i int) *Rank {
	pl := w.Deploy.Placements[i]
	r := &Rank{
		w:       w,
		rank:    i,
		size:    w.Deploy.Size(),
		pl:      pl,
		env:     pl.Env,
		socket:  pl.Socket(),
		wridOps: make(map[uint64]wridRef),
		streams: make(map[streamKey]*envelope),
		qpPeer:  make(map[*ib.QP]int),
	}
	if w.Prof != nil {
		r.prof = w.Prof.Ranks[i]
	}
	return r
}

// Rank returns the global rank.
func (r *Rank) Rank() int { return r.rank }

// Size returns the job size (MPI_COMM_WORLD size).
func (r *Rank) Size() int { return r.size }

// Now returns the rank's virtual clock.
func (r *Rank) Now() sim.Time { return r.p.Now() }

// Hostname is the rank's view of gethostname().
func (r *Rank) Hostname() string { return r.env.Hostname() }

// Compute charges units of local work to the virtual clock (the workload's
// computation model). Straggler fault windows stretch the span.
func (r *Rank) Compute(units float64) {
	d := r.w.inj.Stretch(r.rank, r.p.Now(), r.w.Opts.Params.Compute(units))
	r.p.Advance(d)
	r.faultCheck()
}

// faultCheck fires a scheduled crash once the rank's clock passes its death
// time, unwinding the body via crashAbort.
func (r *Rank) faultCheck() {
	if r.hasCrash && r.p.Now() >= r.crashAt {
		r.hasCrash = false
		panic(crashAbort{err: &CrashError{Rank: r.rank, At: r.p.Now()}})
	}
}

// Abort terminates the whole job with a formatted error (MPI_Abort).
func (r *Rank) Abort(format string, args ...any) {
	r.p.Fatalf(format, args...)
}

// LocalRanks returns the co-resident ranks as the library believes them:
// detector results in locality-aware mode, hostname groups otherwise.
func (r *Rank) LocalRanks() []int {
	var out []int
	for peer := 0; peer < r.size; peer++ {
		if peer == r.rank || core.TreatLocal(r.w.Opts.Mode, r.capsOf(peer)) {
			out = append(out, peer)
		}
	}
	return out
}

// initPre is the pre-barrier half of MPI_Init: open the HCA and publish the
// rank's detector byte (per-peer capabilities are derived on first contact,
// see Rank.peer). MPI_Init is split around the PMI barrier so that
// rankMachine can spread the barrier wait across steps.
func (r *Rank) initPre() error {
	p := r.w.Opts.Params

	// Open the device (needs --privileged inside containers). A failure is
	// only fatal if some peer actually requires the HCA channel. Its wire
	// buffers come from the rank's pool.
	r.dev, r.devErr = r.w.fabric.OpenDeviceWith(r.env, &r.pools.buf)
	if r.dev != nil {
		r.cq = r.dev.CreateCQ()
		r.cq.SetWaiter(r.p)
	}

	// Container Locality Detector (the paper's design) publishes before the
	// bootstrap barrier and snapshots after it.
	var det *core.Detector
	if r.w.Opts.Mode == core.ModeLocalityAware {
		var err error
		det, err = core.NewDetector(r.w.shm, r.w.jobID, r.env, r.rank, r.size)
		if err != nil {
			if !errors.Is(err, fault.ErrInjected) {
				return err
			}
			// Graceful degradation: the detector segment cannot be attached,
			// so fall back to hostname-based locality for this rank. Traffic
			// that would have been rescheduled onto SHM/CMA stays on the HCA
			// loopback — slower, but correct.
			det = nil
			if r.prof != nil {
				r.prof.Faults.DetectorFallbacks++
			}
		}
	}
	if det != nil {
		r.p.Advance(p.ShmAttachOverhead)
		if r.w.Opts.LockedDetector {
			// Ablation: a mutex-protected list serializes co-resident
			// publishers (the cost the paper's byte-per-rank design avoids).
			// Book the lock window before advancing — Advance may yield and
			// another local rank must not grab the same window.
			start := r.p.Now()
			if free := r.w.detLock[r.env.Host]; free > start {
				start = free
			}
			end := start + core.LockedPublishHold
			r.w.detLock[r.env.Host] = end
			det.Publish()
			r.p.Advance(end - r.p.Now())
		} else {
			det.Publish()
			r.p.Advance(core.LockFreePublishCost)
		}
		r.det = det
	}
	return nil
}

// initPost is the post-barrier half of MPI_Init: snapshot the detector's
// container list and check that the HCA is there if any peer needs it.
func (r *Rank) initPost() error {
	if r.det != nil {
		r.loc = r.det.Snapshot()
		// Scanning one byte per rank: ~0.5 ns each.
		r.p.Advance(sim.FromNanos(0.5 * float64(r.size)))
	}
	if r.dev == nil && r.needsHCA() {
		return fmt.Errorf("rank %d in %s needs the HCA channel but cannot open the device: %w",
			r.rank, r.env, r.devErr)
	}
	return nil
}

// needsHCA reports whether some peer is out of reach of shared memory: the
// pair shares no IPC namespace, or the library does not treat it as local
// (core.SelectPath). Every peer passing the hostname test is within reach —
// counted once per world, by environment — and so are, in locality-aware
// mode, the detected co-residents among the rest.
func (r *Rank) needsHCA() bool {
	w := r.w
	if w.sameNameIPC == nil {
		w.sameNameIPC = make(map[nameIPC]int)
		for _, pl := range w.Deploy.Placements {
			w.sameNameIPC[nameIPCOf(pl.Env)]++
		}
	}
	local := w.sameNameIPC[nameIPCOf(r.env)] - 1 // not counting r itself
	for _, peer := range r.loc.LocalRanks {
		if peer == r.rank {
			continue
		}
		if c := r.capsOf(peer); c.SharedIPC && !c.SameHostname {
			local++
		}
	}
	return local < r.size-1
}

// finalizeCheck asserts there are no dangling requests at MPI_Finalize.
func (r *Rank) finalizeCheck() {
	if n := r.posted.len(); n != 0 {
		r.p.Fatalf("MPI_Finalize with %d posted receives outstanding", n)
	}
	// First-contact order, so the rank named is the same on every run.
	for _, pr := range r.peers.recs {
		if pr.q != nil && len(pr.q.sendQ) != 0 {
			r.p.Fatalf("MPI_Finalize with %d sends to rank %d outstanding", len(pr.q.sendQ), pr.rank)
		}
	}
}

// pathFor applies the paper's channel selection (Fig. 5) for a message of
// the given size to a peer, then overrides it with any degradation state the
// pair accumulated under fault injection: a dead ring forces the HCA
// channel, a dead CMA channel forces SHM-staged rendezvous.
func (r *Rank) pathFor(pr *peerRec, size int) core.Path {
	path := core.SelectPath(r.w.Opts.Mode, r.w.Opts.Tunables, pr.caps, size)
	ps := pr.ps
	switch {
	case ps.shmDead() && path != core.PathHCAEager && path != core.PathHCARndv:
		if size <= r.w.Opts.Tunables.IBAEagerThreshold {
			return core.PathHCAEager
		}
		return core.PathHCARndv
	case ps.cmaDead && path == core.PathCMARndv:
		return core.PathSHMRndv
	}
	return path
}

// crossSocket reports whether r and peer are pinned to different sockets
// (memcpy and CMA bandwidths differ across the QPI link).
func (r *Rank) crossSocket(peer int) bool {
	return r.w.Deploy.Placements[peer].Socket() != r.socket
}

// trace emits one structured trace record when the world has a recorder
// (Options.Record). Records ride the engine's emitter, which hands them to
// the recorder at once, in the order the ranks run.
func (r *Rank) trace(op trace.Op, path trace.PathCode, peer, tag, ctx, bytes int, seq uint64) {
	if r.w.Opts.Record == nil {
		return
	}
	r.p.Emit(trace.Record{
		T: r.p.Now(), Op: op, Path: path,
		Rank: r.rank, Peer: peer, Tag: tag, Ctx: ctx, Bytes: bytes, Aux: seq,
	})
}

// containerOverhead is the extra per-operation kernel-path cost paid when
// this rank runs inside a container (zero natively).
func (r *Rank) containerOverhead() sim.Time {
	if r.env.IsNative() {
		return 0
	}
	return r.w.Opts.Params.ContainerPacketOverhead
}

// countOp records one channel transfer operation for the profiler.
func (r *Rank) countOp(ch core.Channel, n int) {
	if r.prof != nil {
		r.prof.Channels.Add(ch, n)
	}
}

// profEnter/profExit bracket a public MPI call for mpiP-style accounting.
func (r *Rank) profEnter() {
	if r.prof != nil {
		r.prof.Enter(r.p.Now())
	}
}

func (r *Rank) profExit(call string) {
	if r.prof != nil {
		r.prof.Exit(call, r.p.Now())
	}
}

// progress runs one sweep of the progress engine: drain shared-memory
// rings, poll the CQ, and push stalled sends. It reports whether anything
// advanced.
func (r *Rank) progress() bool {
	adv := false
	for _, ps := range r.localPairs {
		if ps.ring.drain(r) {
			adv = true
		}
	}
	if r.cq != nil {
		for _, cqe := range r.cq.Poll(r.p) {
			r.handleCQE(cqe)
			adv = true
		}
	}
	// Iterate destinations in first-use order (never map order) so that
	// virtual-time charging is deterministic across runs.
	live := r.sendDsts[:0]
	for _, pr := range r.sendDsts {
		if r.pushSends(pr) {
			adv = true
		}
		if len(pr.q.sendQ) > 0 {
			live = append(live, pr)
		} else {
			pr.listed = false
		}
	}
	r.sendDsts = live
	return adv
}

// waitUntil drives progress until cond holds, parking when idle: waitStep's
// loop, gone round once per wake. Only a goroutine-backed body may call it —
// its Park blocks for real.
func (r *Rank) waitUntil(cond func() bool) {
	for !r.waitStep(cond) {
	}
}

// waitStep is one pass of the rank's wait loop: drive progress until cond
// holds or nothing advances. True means cond holds and the caller proceeds;
// false means the rank parked as the call's last action. A machine step then
// unwinds returning sim.More and the next step re-enters here; a
// goroutine-backed caller was blocked inside Park until the wake and simply
// calls again. Every external state change that could
// satisfy cond wakes the rank — including the wake scheduled for the rank's
// own planned crash, and (under ErrorsRecover) the broadcast wake
// markCrashed sends when a peer dies.
func (r *Rank) waitStep(cond func() bool) bool {
	for {
		r.faultCheck()
		if r.w.crashGen != r.crashSeen {
			r.crashSeen = r.w.crashGen
			r.failDeadOps()
		}
		if cond() {
			return true
		}
		if r.progress() {
			continue
		}
		if cond() {
			return true
		}
		r.p.Park()
		return false
	}
}

// failDeadOps reaps every operation bound to a peer whose crash this rank has
// not yet processed: posted receives naming the peer (or wildcard receives,
// conservatively — see reapPeer), queued and FIN-awaiting sends toward it, and
// the pair's in-flight rendezvous transfers. Each completes with a
// *ProcFailedError so the application observes the failure ULFM-style.
func (r *Rank) failDeadOps() {
	for d, dead := range r.w.crashed {
		if !dead || d == r.rank {
			continue
		}
		if pr := r.peer(d); !pr.reaped {
			pr.reaped = true
			r.reapPeer(pr)
		}
	}
}

// reapPeer fails this rank's operations bound to the newly dead rank d.
// Wildcard (AnySource) receives are failed too: the dead rank could have been
// their match, so letting them linger risks waiting forever on a message that
// died with its sender. This is the conservative ULFM reading — MPI_ANY_SOURCE
// receives raise MPI_ERR_PROC_FAILED_PENDING when any potential sender fails.
func (r *Rank) reapPeer(pr *peerRec) {
	d := int(pr.rank)
	pe := &ProcFailedError{Peer: d, At: r.p.Now()}

	// Posted receives naming d, or wildcards. failRequest withdraws each from
	// the posted list, so collect victims first.
	var victims []*Request
	for _, req := range r.posted.items() {
		if req.peer == d || req.peer == AnySource {
			victims = append(victims, req)
		}
	}
	for _, req := range victims {
		r.failRequest(req, pe)
	}

	// Receives already matched and mid-stream from d (no longer in posted),
	// plus partially arrived unexpected messages: their remaining fragments
	// died with the sender. Collect seqs and sort for deterministic order.
	var seqs []uint64
	for key := range r.streams {
		if key.src == d {
			seqs = append(seqs, key.seq)
		}
	}
	sortUint64s(seqs)
	for _, seq := range seqs {
		key := streamKey{src: d, seq: seq}
		env := r.streams[key]
		delete(r.streams, key)
		if env.req != nil {
			r.failRequest(env.req, pe)
		}
		// The envelope (and any sendOp reference it holds) is leaked to the
		// GC, like every failed-request envelope: error paths are cold.
	}

	// Unexpected envelopes from d that never finished arriving (rendezvous
	// RTS, partial eagers) can never be received; complete ones stay
	// deliverable — the message was fully in our memory before the crash.
	for i := r.unexpected.len() - 1; i >= 0; i-- {
		if env := r.unexpected.items()[i]; env.src == d && !env.complete {
			r.unexpected.removeAt(i)
		}
	}

	if q := pr.q; q != nil {
		// Queued sends toward d that never reached a channel.
		for _, op := range q.sendQ {
			r.failRequest(op.req, pe)
			op.queued = false
			r.releaseOp(op)
		}
		q.sendQ = nil

		// Rendezvous sends whose payload is delivered but whose FIN will never
		// arrive. Their data is the borrowed user buffer, which the failed
		// request hands back to the caller; releaseOp never pools it.
		for _, op := range q.finWait {
			r.failRequest(op.req, pe)
			r.releaseOp(op)
		}
		q.finWait = nil
	}

	// In-flight HCA rendezvous transfers on the pair: fail this side's
	// requests. Collect and sort ids for deterministic failure order.
	ps := pr.ps
	if len(ps.rndv) > 0 {
		var ids []uint64
		for id, st := range ps.rndv {
			if (st.sreq != nil && st.sreq.r == r) || (st.rreq != nil && st.rreq.r == r) {
				ids = append(ids, id)
			}
		}
		sortUint64s(ids)
		for _, id := range ids {
			st := ps.rndv[id]
			if st.sreq != nil && st.sreq.r == r {
				r.failRequest(st.sreq, pe)
			}
			if st.rreq != nil && st.rreq.r == r {
				r.failRequest(st.rreq, pe)
			}
			delete(ps.rndv, id)
		}
	}
}

// addFinWait registers a rendezvous send that left the queue but still awaits
// its FIN, so reapPeer can fail it if the receiver dies first.
func (r *Rank) addFinWait(op *sendOp) {
	q := op.pr.q
	q.finWait = append(q.finWait, op)
}

// removeFinWait drops a send from the FIN-wait list (its FIN or CTS arrived).
func (r *Rank) removeFinWait(op *sendOp) {
	q := op.pr.q
	for i, o := range q.finWait {
		if o == op {
			q.finWait = append(q.finWait[:i], q.finWait[i+1:]...)
			return
		}
	}
}

// Failed reports whether any rank in the job has crashed (ULFM
// MPI_Comm_failure_ack/get_acked condensed to a world-level query; meaningful
// under ErrorsRecover).
func (r *Rank) Failed() bool { return r.w.anyCrashed() }

// DeadRanks lists the crashed ranks in ascending order.
func (r *Rank) DeadRanks() []int { return r.w.deadRanksSorted() }

// Restored reports whether this world resumed from a checkpoint, and if so
// returns the rank's snapshot blob (the bytes it passed to Checkpoint) and
// the epoch it came from. Call it at body start to skip completed work.
func (r *Rank) Restored() ([]byte, int, bool) {
	snap := r.w.restored
	if snap == nil {
		return nil, 0, false
	}
	return append([]byte(nil), snap.Blobs[r.PrevRank()]...), snap.Epoch, true
}

// PrevRank returns the rank this process held in the world the latest
// snapshot was taken in (identity unless a shrink renumbered survivors).
func (r *Rank) PrevRank() int {
	if r.w.restoredMap == nil {
		return r.rank
	}
	return r.w.restoredMap[r.rank]
}

// sortUint64s sorts ascending (tiny n; avoids a sort.Slice closure per call).
func sortUint64s(a []uint64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
