package mpi

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

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
// A *Rank is valid until its world's run returns, as an MPI handle is until
// MPI_Finalize: a world that ends cleanly hands its ranks, zeroed, to the
// next world of the process (World.recycle), so nothing may keep one past
// its run.
//
// Per-peer state lives in peer records (peerRec), created on first contact
// and found through the rank's peer table. The table and the records are
// rank-private: only the owning rank's process creates or writes them
// (execution context). Two reads cross over, both of immutable fields: a
// sendOp carries its sender's record to the receiver, which reads nothing
// from it but the rank, and a rank naming a peer for the first time looks
// itself up in the peer's table for the pair's shared state (Rank.peer).
type Rank struct {
	w    *World
	p    *sim.Proc
	rank int
	size int

	env *cluster.Container

	dev    *ib.Device
	devErr error
	cq     *ib.CQ

	det *core.Detector
	// loc is the detector's container-list snapshot (one byte per rank, the
	// paper's own cost): LocalRanks is shared, read-only, by every rank of
	// the list (core.Snapshots). Zero when the detector is off or fell back.
	loc   core.Locality
	peers peerTable

	// matching state
	posted     matchQ[Request]
	unexpected matchQ[envelope]
	streams    []*envelope // inbound ring messages still taking fragments (openStream)
	winCount   int         // windows created (collective order index)

	// send-side state
	selfSeq    uint64             // next message seq for self-sends
	sendDsts   []*peerRec         // destinations with queued ops, in first-use order (deterministic iteration)
	wridOps    map[uint64]wridRef // HCA completion routing; nil until the first (addWrid)
	nextWrid   uint64
	collSeq    int
	localPairs []*pairShared
	// inbound counts the packets queued on the rank's inbound ring
	// directions: pushed (ringDir.push) and not yet consumed
	// (pairShared.drain, dropUndelivered). progress drains no ring while it is zero.
	inbound int32
	socket  int32

	msgSeq uint64     // rank-local rendezvous id sequence
	pools  worldPools // per-rank free lists (see pool.go)

	// fault state
	crashAt sim.Time // scheduled death (valid when hasCrash)

	// recovery state (a crashed peer under ErrorsReturn)
	crashSeen uint64 // last World.crashGen this rank reaped

	prof *profile.RankProfile

	hasCrash  bool
	reqFailed bool // some request of this rank completed with an error (failRequest)
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
	next    *peerRec    // the rank's next record in first-contact order
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

// peerTable finds a rank's peer records: first heads them in first-contact
// order (linked through peerRec.next, tail the newest), idx is an
// open-addressed index over them (nil for empty; a power of two long, at
// least 16, and at most seven eighths full: a rank's table is small, and
// most lookups are answered by last), n counts them and last is the record
// of the latest lookup.
type peerTable struct {
	first, tail *peerRec
	idx         []*peerRec
	n           int
	last        *peerRec
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
	if pr := t.lookup(peer); pr != nil {
		t.last = pr
		return pr
	}
	return nil
}

// lookup is find without the memory of the latest lookup: the table of
// another rank may be read, never written.
func (t *peerTable) lookup(peer int) *peerRec {
	if len(t.idx) == 0 {
		return nil
	}
	mask := len(t.idx) - 1
	for i := t.slot(peer); ; i = (i + 1) & mask {
		pr := t.idx[i]
		if pr == nil || int(pr.rank) == peer {
			return pr
		}
	}
}

// add lists a new record, growing the index to keep it at most seven eighths
// full: in place while its array has room, as one from an earlier world's
// table has until the table outgrows that one's.
func (t *peerTable) add(pr *peerRec) {
	if t.tail == nil {
		t.first = pr
	} else {
		t.tail.next = pr
	}
	t.tail, t.last = pr, pr
	t.n++
	if 8*t.n <= 7*len(t.idx) {
		t.place(pr)
		return
	}
	if n := max(16, 2*len(t.idx)); n <= cap(t.idx) {
		t.idx = t.idx[:n]
		clear(t.idx)
	} else {
		t.idx = core.TakeArray[*peerRec](n)
	}
	for x := t.first; x != nil; x = x.next {
		t.place(x)
	}
}

// place enters pr into the index.
func (t *peerTable) place(pr *peerRec) {
	mask := len(t.idx) - 1
	i := t.slot(int(pr.rank))
	for t.idx[i] != nil {
		i = (i + 1) & mask
	}
	t.idx[i] = pr
}

// peer returns r's record for a peer, creating it on first contact. The
// pair's shared state comes from the peer's own record of r when the other
// end named the pair first, and is minted otherwise: a new pair is all zero
// but for its two ranks, so which end minted it cannot be observed. Records
// and pairs come from the depot when an earlier world left some there
// (World.recycle).
func (r *Rank) peer(peer int) *peerRec {
	if pr := r.peers.find(peer); pr != nil {
		return pr
	}
	var ps *pairShared
	if back := r.w.ranks[peer].peers.lookup(r.rank); back != nil {
		ps = back.ps
	} else {
		ps = core.TakeOrNew(pairKind)
		ps.lo, ps.hi = int32(min(r.rank, peer)), int32(max(r.rank, peer))
	}
	ps.ends++
	pr := core.TakeOrNew(peerKind)
	pr.ps, pr.rank, pr.caps = ps, int32(peer), r.capsOf(peer)
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

// addWrid mints the work-request id of an HCA operation whose completion
// ref routes back.
func (r *Rank) addWrid(ref wridRef) uint64 {
	r.nextWrid++
	return r.routeWrid(r.nextWrid, ref)
}

// routeWrid routes the completion of work request id back to ref and returns
// id. A rendezvous write's id is its msgID, which names the transfer in the
// pair's table: minted by this rank, with the rank's number in bit 40 and
// up, it lies above every id addWrid counts to.
func (r *Rank) routeWrid(id uint64, ref wridRef) uint64 {
	if r.wridOps == nil {
		r.wridOps = make(map[uint64]wridRef)
	}
	r.wridOps[id] = ref
	return id
}

// newRank makes rank i of w, on a rank an earlier world handed on
// (World.recycle) when there is one: zero but for its queues' arrays.
func newRank(w *World, i int) *Rank {
	pl := w.Deploy.Placements[i]
	r := core.TakeOrNew(rankKind)
	r.w, r.rank, r.size = w, i, w.Deploy.Size()
	r.env, r.socket = pl.Env, int32(pl.Socket())
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
		det, err = core.AttachDetector(r.w.shm, r.w.detSeg, r.env, r.rank, r.size)
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
// container list and check that the HCA is there if any peer needs it. The
// host scans each list once, for the first rank that reads it; every rank is
// charged its own scan.
func (r *Rank) initPost() error {
	if r.det != nil {
		r.loc = r.w.snaps.Of(r.det)
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
	for pr := r.peers.first; pr != nil; pr = pr.next {
		if pr.q != nil && len(pr.q.sendQ) != 0 {
			r.p.Fatalf("MPI_Finalize with %d sends to rank %d outstanding", len(pr.q.sendQ), pr.rank)
		}
	}
}

// pathFor is the library's one channel decision for a two-sided message of
// the given size to a peer: the paper's channel selection (Fig. 5) over the
// capabilities the pair has left under fault injection — a dead ring forces
// the HCA channel, a dead CMA channel forces SHM-staged rendezvous. A
// synchronous send (sync) takes its channel's rendezvous path at any size.
func (r *Rank) pathFor(pr *peerRec, size int, sync bool) core.Path {
	tun, caps := r.w.Opts.Tunables, pr.caps
	if sync {
		tun.SMPEagerSize, tun.IBAEagerThreshold = 0, -1
	}
	caps.SharedIPC = caps.SharedIPC && !pr.ps.shmDead
	caps.SharedPID = caps.SharedPID && !pr.ps.cmaDead
	return core.SelectPath(r.w.Opts.Mode, tun, caps, size)
}

// crossSocket reports whether r and peer are pinned to different sockets
// (memcpy and CMA bandwidths differ across the QPI link).
func (r *Rank) crossSocket(peer int) bool {
	return r.w.Deploy.Placements[peer].Socket() != int(r.socket)
}

// trace builds one structured trace record, when the world records
// (Options.Record) or profiles (Options.Profile), at once: records arrive in
// the order the ranks run. A profiled world folds it into its profile
// (trace.Credits), a recording one adds it to its recorder.
func (r *Rank) trace(op trace.Op, path trace.PathCode, peer, tag, ctx, bytes int, seq uint64) {
	rec := r.w.Opts.Record
	if rec == nil && r.prof == nil {
		return
	}
	t := trace.Record{
		T: r.p.Now(), Op: op, Path: path,
		Rank: r.rank, Peer: peer, Tag: tag, Ctx: ctx, Bytes: bytes, Aux: seq,
	}
	if r.prof != nil {
		// The profile holds all the fold's state; a live run has no use for
		// its anomaly count. (A World field for it would take World, with
		// the allocator's 8-byte header, past the 896-byte size class.)
		c := trace.Credits{Cell: r.w.Opts.Params.ShmCellPayload, Ranks: r.w.Prof.Ranks}
		c.Add(&t)
	}
	if rec != nil {
		rec.Add(t)
	}
}

// containerOverhead is the extra per-operation kernel-path cost paid when
// this rank runs inside a container (zero natively).
func (r *Rank) containerOverhead() sim.Time {
	if r.env.IsNative() {
		return 0
	}
	return r.w.Opts.Params.ContainerPacketOverhead
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
	if r.inbound > 0 {
		for _, ps := range r.localPairs {
			if ps.drain(r) {
				adv = true
			}
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

// waitStep is one pass of the rank's wait loop (waitPass), parking when cond
// still fails. True means cond holds and the caller proceeds; false means the
// rank parked as the call's last action. A machine step then unwinds
// returning sim.More and the next step re-enters here; a goroutine-backed
// caller was blocked inside Park until the wake and simply calls again. Every
// external state change that could satisfy cond wakes the rank — including
// the wake scheduled for the rank's own planned crash, and (under
// ErrorsReturn) the broadcast wake markCrashed sends when a peer dies.
func (r *Rank) waitStep(cond func() bool) bool {
	if r.waitPass(cond) {
		return true
	}
	r.p.Park()
	return false
}

// pollStep is one pass of the wait loop for the calls that must not block
// (Test, TestAll, TestAny, Iprobe). When cond still fails it charges one
// poll of the progress engine (ShmPollOverhead), so a loop of such calls
// lets virtual time pass and a sender's message, or a peer's crash, reach
// the rank.
func (r *Rank) pollStep(cond func() bool) bool {
	if r.waitPass(cond) {
		return true
	}
	r.p.Advance(r.w.Opts.Params.ShmPollOverhead)
	return false
}

// waitPass drives progress until cond holds or nothing advances, firing the
// rank's planned crash (faultCheck) and reaping crashed peers (failDeadOps)
// on the way, and reports whether cond holds.
func (r *Rank) waitPass(cond func() bool) bool {
	for {
		r.faultCheck()
		if r.w.crashGen != r.crashSeen {
			r.crashSeen = r.w.crashGen
			r.failDeadOps()
		}
		if cond() {
			return true
		}
		if !r.progress() {
			return cond()
		}
	}
}

// failDeadOps sweeps, once per peer, the operations bound to every peer whose
// crash this rank has not yet processed (losePeer).
func (r *Rank) failDeadOps() {
	for d, dead := range r.w.crashed {
		if !dead || d == r.rank {
			continue
		}
		if pr := r.peer(d); !pr.reaped {
			pr.reaped = true
			r.losePeer(pr, &ProcFailedError{Peer: d, At: r.p.Now()})
		}
	}
}

// losePeer fails this rank's operations bound to the lost peer pr with cause:
// a *ChannelError when the HCA channel to it broke (handleChannelError, on
// every error completion) or a *ProcFailedError when it crashed (failDeadOps,
// once). Either way posted receives naming the peer fail, and so does this
// side of every HCA rendezvous on the pair. A crash also fails what only the
// dead process could have finished: wildcard receives (it could have been
// their match — the conservative ULFM reading, where MPI_ANY_SOURCE receives
// raise MPI_ERR_PROC_FAILED_PENDING), streams and unexpected envelopes still
// missing fragments, and ring sends queued toward it or awaiting its FIN. A
// broken HCA channel leaves those to the pair's ring and to other senders.
func (r *Rank) losePeer(pr *peerRec, cause error) {
	d := int(pr.rank)
	_, crashed := cause.(*ProcFailedError)

	// failRequest withdraws each receive from the posted list: walk it from
	// the back.
	for i := r.posted.len() - 1; i >= 0; i-- {
		if req := r.posted.items()[i]; req.peer == d || crashed && req.peer == AnySource {
			r.failRequest(req, cause)
		}
	}

	// This side of the pair's rendezvous transfers, in id order. After a
	// break the far end fails its own side when its error completion
	// arrives, so the entry stays for it; a dead far end never will.
	ps := pr.ps
	var ids []uint64
	for id, st := range ps.rndv {
		if (st.sreq != nil && st.sreq.r == r) || (st.rreq != nil && st.rreq.r == r) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		st := ps.rndv[id]
		if st.sreq != nil && st.sreq.r == r {
			r.failRequest(st.sreq, cause)
			st.sreq = nil
		}
		if st.rreq != nil && st.rreq.r == r {
			r.failRequest(st.rreq, cause)
			st.rreq = nil
		}
		if crashed {
			delete(ps.rndv, id)
		} else {
			ps.rndv[id] = st
		}
	}
	if !crashed {
		return
	}

	// Receives matched and mid-stream from d, and partially arrived
	// unexpected messages, in sequence order. The envelope (and any sendOp
	// reference it holds) is left to the GC, like every failed-request
	// envelope: error paths are cold.
	var cut []*envelope
	for _, env := range r.streams {
		if env.src == d {
			cut = append(cut, env)
		}
	}
	slices.SortFunc(cut, func(a, b *envelope) int { return cmp.Compare(a.seq, b.seq) })
	for _, env := range cut {
		r.closeStream(env)
		if env.req != nil {
			r.failRequest(env.req, cause)
		}
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
			r.failRequest(op.req, cause)
			op.queued = false
			r.releaseOp(op)
		}
		q.sendQ = nil

		// Rendezvous sends whose payload is delivered but whose FIN will never
		// arrive. Their data is the borrowed user buffer, which the failed
		// request hands back to the caller; releaseOp never pools it.
		for _, op := range q.finWait {
			r.failRequest(op.req, cause)
			r.releaseOp(op)
		}
		q.finWait = nil
	}
}

// lostErr is the error an operation naming peer fails with at once because
// this rank has lost it — the peer crashed, or the HCA channel to it broke —
// or nil. A wildcard source names no peer.
func (r *Rank) lostErr(peer int) error {
	if peer != AnySource && r.w.rankDead(peer) {
		return &ProcFailedError{Peer: peer, At: r.p.Now()}
	}
	if pr := r.peers.find(peer); pr != nil && pr.dead {
		return &ChannelError{Peer: peer, Status: ib.WCFlushed}
	}
	return nil
}

// addFinWait registers a rendezvous send that left the queue but still awaits
// its FIN, so losePeer can fail it if the receiver dies first.
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
// under ErrorsReturn, since under ErrorsAreFatal a crash ends the job).
func (r *Rank) Failed() bool { return r.w.anyCrashed() }

// DeadRanks lists the crashed ranks in ascending order (empty under
// ErrorsAreFatal, which ends the job at the first crash).
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
