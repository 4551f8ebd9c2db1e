package mpi

import (
	"errors"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/fault"
	rec "cmpi/internal/recover"
)

// Restart-based recovery: RunRecoverable drives a job under ErrorsRecover
// and, when ranks crash, rebuilds the world — shrunken to the survivors or
// with the casualties respawned on healthy hosts — restores the latest
// coordinated checkpoint, and replays forward. Because the simulation is
// deterministic, a restored run's final application state is byte-identical
// to an uninterrupted run of the same (post-checkpoint) work.

// RecoverOptions configures World.RunRecoverable.
type RecoverOptions struct {
	// Policy selects what a restart does about dead ranks: respawn them on a
	// healthy host (PolicyRespawn, the default) or shrink the job to the
	// survivors (PolicyShrink).
	Policy rec.Policy
	// MaxRestarts bounds how many times the job is rebuilt after failures.
	// The zero value allows none: the first fatal failure is returned as-is.
	MaxRestarts int
	// Store receives committed checkpoints and seeds restarts; nil allocates
	// a fresh one. Pass a pre-filled store to resume an earlier job.
	Store *rec.Store
}

// RunRecoverable runs body like Run, but under the ErrorsRecover handler and
// with automatic restarts: when ranks crash, the deployment is repaired per
// the policy, the world is rebuilt on the same cluster, the latest
// checkpoint (if any) is restored — ranks then see Restored() — and the body
// runs again from the top. Virtual time restarts at zero in each new world;
// the snapshot's capture time is metadata, not a clock preload. The receiver
// world is attempt one; like Run, it must not have been run before. The
// returned Report describes every attempt even when the final error is
// non-nil.
func (w *World) RunRecoverable(ro RecoverOptions, body func(r *Rank) error) (*rec.Report, error) {
	store := ro.Store
	if store == nil {
		store = rec.NewStore()
	}
	report := &rec.Report{}
	cur := w
	for {
		cur.Opts.ErrHandler = ErrorsRecover
		cur.store = store
		err := cur.Run(body)
		report.Attempts++
		report.FinalSize = cur.Size()
		report.FinalTime = cur.MaxBodyTime()
		if err == nil {
			report.Recovered = report.Attempts > 1
			return report, nil
		}
		dead := cur.deadRanksSorted()
		if len(dead) == 0 || report.Attempts > ro.MaxRestarts {
			// Not a crash (or out of budget): nothing a restart can fix.
			return report, err
		}

		var (
			nd       *cluster.Deployment
			mapping  []int // new rank -> old rank (nil = identity)
			newHosts []int
			derr     error
		)
		if ro.Policy == rec.PolicyShrink {
			nd, mapping, derr = cluster.Shrink(cur.Deploy, dead)
		} else {
			nd, newHosts, derr = cluster.Respawn(cur.Deploy, dead)
		}
		if derr != nil {
			return report, errors.Join(err, derr)
		}
		for i, dr := range dead {
			fr := rec.FailureRecord{Rank: dr, Action: ro.Policy, NewHost: -1}
			var ce *CrashError
			if re := cur.rankErrs[dr]; re != nil && errors.As(re, &ce) {
				fr.At = ce.At
			}
			if newHosts != nil {
				fr.NewHost = newHosts[i]
			}
			report.Failures = append(report.Failures, fr)
		}

		opts := cur.Opts
		opts.FaultPlan = pruneFaultPlan(opts.FaultPlan, dead, mapping, ro.Policy)
		next, nerr := NewWorld(nd, opts)
		if nerr != nil {
			return report, errors.Join(err, nerr)
		}
		next.store = store
		if snap := store.Latest(); snap != nil {
			next.restored = snap
			next.restoredMap = mapping
		}
		cur = next
	}
}

// pruneFaultPlan adapts a fault plan to a repaired deployment. Under respawn
// the geometry is unchanged: only the crashes that already fired (the dead
// ranks') are removed, so the replacement does not die at birth; everything
// else — including crashes of other ranks that have not fired yet — replays.
// Under shrink, rank-targeted events are remapped to the survivors' new
// numbering and events aimed at dead ranks are dropped; host-targeted events
// are kept verbatim (hosts persist across the rebuild). A remapped target can
// never land at or beyond the shrunken world size: oldToNew is built from the
// shrink mapping, which lists exactly the survivors in their new (compacted)
// order, so every value it yields is a valid new rank and every old rank it
// does not contain — dead or out of range — drops its event. NewWorld
// re-validates the pruned plan against the new geometry as a backstop, so a
// future remapping bug fails the restart loudly instead of arming a fault on
// a phantom rank.
func pruneFaultPlan(p *fault.Plan, dead []int, mapping []int, policy rec.Policy) *fault.Plan {
	if p == nil {
		return nil
	}
	isDead := make(map[int]bool, len(dead))
	for _, r := range dead {
		isDead[r] = true
	}
	if policy != rec.PolicyShrink {
		return p.Filter(func(e fault.Event) bool {
			return !(e.Kind == fault.RankCrash && isDead[e.Rank])
		})
	}
	oldToNew := make(map[int]int, len(mapping))
	for nr, or := range mapping {
		oldToNew[or] = nr
	}
	out := &fault.Plan{Seed: p.Seed}
	for _, e := range p.Events {
		if e.Kind == fault.RankCrash || e.Kind == fault.Straggler {
			if e.Rank != fault.Any {
				nr, ok := oldToNew[e.Rank]
				if !ok {
					continue
				}
				e.Rank = nr
			}
		}
		out.Events = append(out.Events, e)
	}
	return out
}

// restoreRank reinstates one rank's runtime state from the world's snapshot:
// the per-destination send sequence counters and the checkpointed mail —
// messages that were fully delivered but still unmatched at the cut — so a
// receive posted after the restart matches exactly what it would have in the
// original world. Under shrink, mail from dead senders is dropped (its
// source rank no longer exists to be named) and surviving sources are
// renumbered. Called from Run, in the rank's own process context, right
// after the post-init barrier. The user blob is surfaced via Rank.Restored.
func (w *World) restoreRank(r *Rank) {
	snap := w.restored
	old := r.PrevRank()
	var oldToNew map[int]int
	if w.restoredMap != nil {
		oldToNew = make(map[int]int, len(w.restoredMap))
		for nr, or := range w.restoredMap {
			oldToNew[or] = nr
		}
	}
	for newDst := 0; newDst < w.Size(); newDst++ {
		oldDst := newDst
		if w.restoredMap != nil {
			oldDst = w.restoredMap[newDst]
		}
		if seq := snap.SendSeq[[2]int{old, oldDst}]; newDst == r.rank {
			r.selfSeq = seq
		} else if seq != 0 {
			r.peer(newDst).sendSeq = seq
		}
	}
	for _, m := range snap.Mail[old] {
		src := m.Src
		if oldToNew != nil {
			ns, ok := oldToNew[src]
			if !ok {
				continue
			}
			src = ns
		}
		env := r.pools.envs.get()
		env.src, env.tag, env.size = src, m.Tag, m.Bytes
		env.ctx = m.Ctx
		env.seq = m.Seq
		// The payload is already in this rank's memory — deliverable by a
		// local copy regardless of the channel that originally carried it.
		env.path = core.PathSHMEager
		env.staged = r.pools.buf.GetCopy(m.Data)
		env.received = m.Bytes
		env.complete = true
		r.unexpected.push(env)
	}
}
