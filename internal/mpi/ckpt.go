package mpi

import (
	"fmt"

	rec "cmpi/internal/recover"
	"cmpi/internal/sim"
	"cmpi/internal/trace"
)

// Coordinated checkpointing. Checkpoint is a collective: every rank calls it
// at a point where its own requests are complete, the world waits for the
// event queue to drain — in virtual time that IS the Chandy-Lamport cut: no
// message is in flight anywhere when the engine quiesces with every rank
// parked in the barrier — and the snapshot commits with each rank's user blob
// plus the channel state that survives the cut (fully delivered but unmatched
// messages, per-destination sequence counters). The artifact is versioned and
// byte-deterministic (internal/recover), so a restore replays forward to
// results identical to an uninterrupted run.

// ckptState is the world's checkpoint barrier.
type ckptState struct {
	gen       int      // completed or aborted barriers so far
	arrived   int      // ranks parked in the current barrier
	latest    sim.Time // latest arrival time (release base)
	blobs     [][]byte // per-rank user state handed to Checkpoint
	scheduled bool     // commit callback registered with the engine
	// lastAborted is sticky: once any rank has crashed, no full-world
	// barrier can ever complete again (the dead rank will never arrive),
	// so "the last barrier aborted" can never be contradicted later.
	lastAborted bool
}

// Checkpoint is the coordinated-checkpoint collective. blob is this rank's
// application state, captured opaquely into the snapshot; the runtime adds
// the in-flight channel state on its own. All of the rank's point-to-point
// requests must be complete (posted receives outstanding are a fatal API
// error, mirroring MPI_Finalize). Returns nil once the snapshot is committed
// to the world's store, or a *CheckpointError if a rank crashed before the
// commit — the store then still holds the previous snapshot.
func (r *Rank) Checkpoint(blob []byte) error {
	r.profEnter()
	defer r.profExit("Checkpoint")
	r.faultCheck()
	// The barrier mutates job-global state (and registers a quiesce
	// callback, which takes Global): collapse the world to one group first.
	// Fault worlds never form more than one.
	r.ensureSerial()
	w := r.w
	if w.anyCrashed() {
		return &CheckpointError{At: r.p.Now(), Dead: w.deadRanksSorted()}
	}
	if n := r.posted.len(); n != 0 {
		r.p.Fatalf("Checkpoint with %d posted receives outstanding", n)
	}
	if w.store == nil {
		w.store = rec.NewStore()
	}
	ck := &w.ck
	if ck.blobs == nil {
		ck.blobs = make([][]byte, w.Size())
	}
	ck.blobs[r.rank] = append([]byte(nil), blob...)
	ck.arrived++
	if t := r.p.Now(); t > ck.latest {
		ck.latest = t
	}
	gen := ck.gen
	if ck.arrived == w.liveCount() && !ck.scheduled {
		// Last arriver: commit once the engine drains. Every rank is parked
		// here by then, so queue exhaustion means no fragment, CQE, or control
		// packet is in flight anywhere — the consistent cut.
		ck.scheduled = true
		w.Eng.AtQuiesce(func() { w.commitCkpt(gen) })
	}
	r.waitUntil(func() bool { return w.ck.gen != gen })
	if ck.lastAborted {
		return &CheckpointError{At: r.p.Now(), Dead: w.deadRanksSorted()}
	}
	r.trace(trace.OpCkpt, trace.PathNone, -1, 0, 0, len(blob), uint64(w.store.Latest().Epoch))
	return nil
}

// commitCkpt builds and stores the snapshot. Runs in scheduler context at
// engine quiescence; gen guards against a barrier that aborted (crash) after
// the callback was registered.
func (w *World) commitCkpt(gen int) {
	ck := &w.ck
	if ck.gen != gen || !ck.scheduled {
		return
	}
	snap := &rec.Snapshot{
		Version: rec.SnapshotVersion,
		At:      ck.latest + w.Opts.Params.PMIBarrierLatency,
		Ranks:   w.Size(),
		Blobs:   ck.blobs,
		Mail:    make([][]rec.Message, w.Size()),
		SendSeq: make(map[[2]int]uint64),
	}
	for i, r := range w.ranks {
		if err := r.quiesceViolation(); err != nil {
			w.Eng.Fail(fmt.Errorf("checkpoint at quiescence, rank %d: %w", i, err))
			return
		}
		for _, env := range r.unexpected.items() {
			snap.Mail[i] = append(snap.Mail[i], rec.Message{
				Src: env.src, Tag: env.tag, Ctx: env.ctx, Bytes: env.size,
				Seq:  env.seq,
				Data: append([]byte(nil), env.staged[:env.received]...),
			})
		}
		if r.selfSeq != 0 {
			snap.SendSeq[[2]int{i, i}] = r.selfSeq
		}
		for _, pr := range r.peers.recs {
			if pr.sendSeq != 0 {
				snap.SendSeq[[2]int{i, int(pr.rank)}] = pr.sendSeq
			}
		}
	}
	w.store.Commit(snap)
	release := snap.At
	ck.gen++
	ck.arrived = 0
	ck.latest = 0
	ck.blobs = nil
	ck.scheduled = false
	for _, r := range w.ranks {
		r.p.UnparkAt(release)
	}
}

// quiesceViolation reports the first in-flight-state invariant this rank
// breaks at the checkpoint cut, or nil. At engine quiescence with every rank
// parked in the barrier nothing can be mid-transfer; a violation is a runtime
// bug, not an application error.
func (r *Rank) quiesceViolation() error {
	for _, pr := range r.peers.recs {
		if pr.q == nil {
			continue
		}
		if n := len(pr.q.sendQ); n != 0 {
			return fmt.Errorf("%d sends to rank %d still queued", n, pr.rank)
		}
		if n := len(pr.q.finWait); n != 0 {
			return fmt.Errorf("%d sends to rank %d awaiting FIN", n, pr.rank)
		}
	}
	if n := len(r.streams); n != 0 {
		return fmt.Errorf("%d inbound streams mid-transfer", n)
	}
	for _, env := range r.unexpected.items() {
		if !env.complete {
			return fmt.Errorf("incomplete unexpected message from rank %d (seq %d)", env.src, env.seq)
		}
	}
	for _, pr := range r.peers.recs {
		for _, st := range pr.ps.rndv {
			if (st.sreq != nil && st.sreq.r == r) || (st.rreq != nil && st.rreq.r == r) {
				return fmt.Errorf("HCA rendezvous with rank %d in flight", pr.rank)
			}
		}
	}
	return nil
}

// abortCkpt cancels an in-progress checkpoint barrier after a crash: the dead
// rank can never arrive, so waiting ranks are released with an error. Called
// from markCrashed; a no-op when no barrier is in progress.
func (w *World) abortCkpt(now sim.Time) {
	ck := &w.ck
	if ck.arrived == 0 {
		return
	}
	ck.lastAborted = true
	ck.gen++
	ck.arrived = 0
	ck.latest = 0
	ck.blobs = nil
	ck.scheduled = false
	for i, r := range w.ranks {
		if !w.crashed[i] {
			r.p.UnparkAt(now)
		}
	}
}

// Checkpoints exposes the world's snapshot store (nil until the first
// Checkpoint commits, unless RunRecoverable pre-installed one).
func (w *World) Checkpoints() *rec.Store { return w.store }
