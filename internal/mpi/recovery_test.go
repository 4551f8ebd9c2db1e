package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/fault"
	"cmpi/internal/invariant"
	rec "cmpi/internal/recover"
	"cmpi/internal/sim"
)

// The golden workload: goldenChunks chunks of goldenVals values each,
// block-distributed over the ranks, recomputed and allgathered every
// iteration, with a coordinated checkpoint every goldenCkptStep iterations.
// Every value is a pure function of (chunk, iteration), so the final gathered
// array is byte-identical for ANY rank count and any crash/restore history —
// exactly the property restart-based recovery must preserve. 240 divides by
// both 16 and 15, so the block distribution stays exact across a shrink.
const (
	goldenChunks   = 240
	goldenVals     = 8
	goldenIters    = 6
	goldenCkptStep = 2
)

func goldenVal(chunk, iter, v int) float64 {
	return float64(chunk*1000003 + iter*7919 + v*97)
}

// goldenExpected is the analytic final array (last iteration, every chunk).
func goldenExpected() []float64 {
	full := make([]float64, goldenChunks*goldenVals)
	for c := 0; c < goldenChunks; c++ {
		for v := 0; v < goldenVals; v++ {
			full[c*goldenVals+v] = goldenVal(c, goldenIters-1, v)
		}
	}
	return full
}

// goldenBody returns a restartable golden-workload body. On a restored run it
// resumes from the checkpointed iteration (recorded into *resumedFrom by rank
// 0 when non-nil); rank 0 of the completing attempt writes the final array to
// *out.
func goldenBody(out *[]float64, resumedFrom *int) func(r *Rank) error {
	return func(r *Rank) error {
		start := 0
		if blob, _, ok := r.Restored(); ok {
			start = int(binary.BigEndian.Uint64(blob))
			if r.Rank() == 0 && resumedFrom != nil {
				*resumedFrom = start
			}
		}
		size := r.Size()
		per := goldenChunks / size
		if per*size != goldenChunks {
			return fmt.Errorf("%d ranks do not divide %d chunks", size, goldenChunks)
		}
		var full []float64
		for iter := start; iter < goldenIters; iter++ {
			mine := make([]float64, per*goldenVals)
			for c := 0; c < per; c++ {
				for v := 0; v < goldenVals; v++ {
					mine[c*goldenVals+v] = goldenVal(r.Rank()*per+c, iter, v)
				}
			}
			buf := EncodeFloat64s(mine)
			all := make([]byte, len(buf)*size)
			r.Allgather(buf, all)
			if r.Failed() {
				return fmt.Errorf("rank %d: peer failure during iteration %d", r.Rank(), iter)
			}
			full = DecodeFloat64s(all)
			if next := iter + 1; next%goldenCkptStep == 0 && next < goldenIters {
				var blob [8]byte
				binary.BigEndian.PutUint64(blob[:], uint64(next))
				if err := r.Checkpoint(blob[:]); err != nil {
					return err
				}
			}
			r.Compute(2000)
		}
		if r.Rank() == 0 {
			*out = full
		}
		return nil
	}
}

// TestRecoverableGoldenWorkload is the headline acceptance scenario: a
// 16-rank job loses a rank mid-run and still finishes — under both recovery
// policies — with final results byte-identical to the fault-free run,
// restored from a mid-run coordinated checkpoint rather than replayed from
// scratch.
func TestRecoverableGoldenWorkload(t *testing.T) {
	var base []float64
	w := testWorld(t, "2host", 16, DefaultOptions())
	rep, err := w.RunRecoverable(RecoverOptions{}, goldenBody(&base, nil))
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	if rep.Attempts != 1 || rep.Recovered {
		t.Fatalf("fault-free report = %+v, want one non-recovered attempt", rep)
	}
	if !reflect.DeepEqual(base, goldenExpected()) {
		t.Fatal("fault-free final array differs from the analytic expectation")
	}
	// Derive the crash time from the fault-free runtime: past the first
	// checkpoint (~1/3 in), well before the end.
	crashAt := w.MaxBodyTime() * 3 / 5

	for _, tc := range []struct {
		name      string
		policy    rec.Policy
		finalSize int
	}{
		{"respawn", rec.PolicyRespawn, 16},
		{"shrink", rec.PolicyShrink, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.FaultPlan = fault.NewPlan().RankCrash(5, crashAt)
			w := testWorld(t, "2host", 16, opts)
			var got []float64
			resumed := -1
			store := rec.NewStore()
			rep, err := w.RunRecoverable(
				RecoverOptions{Policy: tc.policy, MaxRestarts: 3, Store: store},
				goldenBody(&got, &resumed))
			if err != nil {
				t.Fatalf("recoverable run: %v", err)
			}
			if rep.Attempts != 2 || !rep.Recovered || rep.FinalSize != tc.finalSize {
				t.Errorf("report = %+v, want 2 attempts, recovered, final size %d", rep, tc.finalSize)
			}
			if len(rep.Failures) != 1 || rep.Failures[0].Rank != 5 || rep.Failures[0].Action != tc.policy {
				t.Errorf("failures = %+v, want rank 5 under %v", rep.Failures, tc.policy)
			}
			if tc.policy == rec.PolicyRespawn && rep.Failures[0].NewHost < 0 {
				t.Errorf("respawn reported no new host: %+v", rep.Failures[0])
			}
			if tc.policy == rec.PolicyShrink && rep.Failures[0].NewHost != -1 {
				t.Errorf("shrink reported a new host: %+v", rep.Failures[0])
			}
			if store.Len() == 0 {
				t.Fatal("no checkpoint was committed")
			}
			if resumed <= 0 {
				t.Errorf("restart resumed from iteration %d, want a checkpointed one > 0", resumed)
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("recovered final array differs from the fault-free run")
			}
		})
	}
}

// TestRecoveryDeterminism runs the checkpoint-bearing golden workload — fault
// free and with a crash plus respawn recovery — twice, and
// requires identical results, reports, and checkpoint artifacts.
func TestRecoveryDeterminism(t *testing.T) {
	// Measure the fault-free runtime once so the crash lands mid-run, after
	// the first checkpoint.
	mw := testWorld(t, "2host", 16, DefaultOptions())
	var mfinal []float64
	if _, err := mw.RunRecoverable(RecoverOptions{}, goldenBody(&mfinal, nil)); err != nil {
		t.Fatalf("measuring run: %v", err)
	}
	crashAt := mw.MaxBodyTime() * 3 / 5
	for _, crash := range []bool{false, true} {
		name := "fault-free"
		if crash {
			name = "crash-respawn"
		}
		t.Run(name, func(t *testing.T) {
			invariant.Check(t, func(t *testing.T, p invariant.Point) invariant.Result {
				opts := DefaultOptions()
				if crash {
					opts.FaultPlan = fault.NewPlan().RankCrash(3, crashAt)
				}
				w := testWorld(t, "2host", 16, opts)
				var final []float64
				resumed := -1
				store := rec.NewStore()
				rep, err := w.RunRecoverable(RecoverOptions{MaxRestarts: 3, Store: store}, goldenBody(&final, &resumed))
				if err != nil {
					t.Fatalf("%+v: %v", p, err)
				}
				if store.Latest() == nil {
					t.Fatalf("%+v: no checkpoint committed", p)
				}
				return invariant.Result{Digest: invariant.Sum(w.Digest(), final, resumed, *rep, store.Latest().Encode())}
			}, invariant.Point{}, invariant.Point{})
		})
	}
}

// TestRecoverErrorOrderDeterminism crashes two ranks with no restart budget
// and requires the aggregated job error — victim CrashErrors interleaved with
// survivor body errors — to come out identically from run to run
// (rank-sorted, because the aggregate is built from the rank-indexed slice).
func TestRecoverErrorOrderDeterminism(t *testing.T) {
	invariant.Check(t, func(t *testing.T, p invariant.Point) invariant.Result {
		opts := DefaultOptions()
		opts.ErrHandler = ErrorsRecover
		opts.FaultPlan = fault.NewPlan().
			RankCrash(1, 10*sim.Microsecond).
			RankCrash(6, 15*sim.Microsecond)
		w := testWorld(t, "native", 8, opts)
		err := w.Run(func(r *Rank) error {
			r.Compute(5000)
			r.Barrier()
			if r.Failed() {
				return fmt.Errorf("rank %d saw %d dead peers", r.Rank(), len(r.DeadRanks()))
			}
			return nil
		})
		if err == nil {
			t.Fatalf("%+v: run with two crashed ranks succeeded", p)
		}
		return invariant.Result{Digest: invariant.Sum(w.Digest(), err)}
	}, invariant.Point{}, invariant.Point{})
}

// TestCommShrinkInWorld is in-world ULFM recovery without a restart: a rank
// dies, the survivors observe the failure, shrink the world communicator, and
// finish the job on the survivor communicator with correct collectives.
func TestCommShrinkInWorld(t *testing.T) {
	const n = 8
	const victim = 2
	opts := DefaultOptions()
	opts.ErrHandler = ErrorsRecover
	opts.FaultPlan = fault.NewPlan().RankCrash(victim, 10*sim.Microsecond)
	w := testWorld(t, "native", n, opts)
	finished := 0
	err := w.Run(func(r *Rank) error {
		// The victim dies in here, before any communication: every
		// survivor's first collective observes the failure, so they all
		// reach Shrink at the same program point.
		r.Compute(5000)
		comm := r.CommWorld()
		buf := EncodeFloat64s([]float64{1})
		comm.Allreduce(buf, SumFloat64)
		if !r.Failed() {
			return fmt.Errorf("rank %d: no failure observed after the victim's death", r.Rank())
		}
		if dead := r.DeadRanks(); len(dead) != 1 || dead[0] != victim {
			return fmt.Errorf("rank %d: dead ranks %v, want [%d]", r.Rank(), dead, victim)
		}
		nc := comm.Shrink()
		if nc.Size() != n-1 {
			return fmt.Errorf("rank %d: shrunken size %d, want %d", r.Rank(), nc.Size(), n-1)
		}
		// Survivors keep parent order; the victim's slot is gone.
		want := 0
		for i := 0; i < nc.Size(); i++ {
			if want == victim {
				want++
			}
			if g := nc.GlobalRank(i); g != want {
				return fmt.Errorf("rank %d: member %d is world rank %d, want %d", r.Rank(), i, g, want)
			}
			want++
		}
		m := nc.Size()
		for round := 0; round < 4; round++ {
			buf := EncodeFloat64s([]float64{float64(nc.Rank() + round)})
			nc.Allreduce(buf, SumFloat64)
			got := DecodeFloat64s(buf)[0]
			if want := float64(m*(m-1)/2 + m*round); got != want {
				return fmt.Errorf("rank %d round %d: survivor allreduce = %v, want %v", r.Rank(), round, got, want)
			}
		}
		nc.Barrier()
		finished++
		return nil
	})
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Rank != victim {
		t.Fatalf("err = %v, want the victim's *CrashError", err)
	}
	var pe *ProcFailedError
	if errors.As(err, &pe) {
		t.Errorf("a survivor failed its recovery path: %v", err)
	}
	if finished != n-1 {
		t.Errorf("%d survivors finished cleanly, want %d (err: %v)", finished, n-1, err)
	}
}

// TestCheckpointAbortOnCrash parks most ranks in a checkpoint barrier and
// kills the straggler before it arrives: the barrier must abort, every
// survivor gets a *CheckpointError naming the victim, nothing is committed,
// and later Checkpoint attempts fail fast.
func TestCheckpointAbortOnCrash(t *testing.T) {
	const n = 4
	const victim = 3
	opts := DefaultOptions()
	opts.ErrHandler = ErrorsRecover
	opts.FaultPlan = fault.NewPlan().RankCrash(victim, 20*sim.Microsecond)
	w := testWorld(t, "native", n, opts)
	aborted := 0
	err := w.Run(func(r *Rank) error {
		if r.Rank() == victim {
			r.Compute(10000) // dies in here, never reaches the barrier
		}
		err := r.Checkpoint([]byte{byte(r.Rank())})
		var ce *CheckpointError
		if !errors.As(err, &ce) {
			return fmt.Errorf("rank %d: Checkpoint = %v, want *CheckpointError", r.Rank(), err)
		}
		if len(ce.Dead) != 1 || ce.Dead[0] != victim {
			return fmt.Errorf("rank %d: CheckpointError.Dead = %v, want [%d]", r.Rank(), ce.Dead, victim)
		}
		if !errors.Is(err, fault.ErrInjected) {
			return fmt.Errorf("rank %d: CheckpointError does not unwrap to ErrInjected", r.Rank())
		}
		// With a rank already dead, a retry must fail immediately.
		if err := r.Checkpoint(nil); !errors.As(err, &ce) {
			return fmt.Errorf("rank %d: retry Checkpoint = %v, want *CheckpointError", r.Rank(), err)
		}
		aborted++
		return nil
	})
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Rank != victim {
		t.Fatalf("err = %v, want the victim's *CrashError", err)
	}
	if aborted != n-1 {
		t.Errorf("%d survivors saw the abort cleanly, want %d (err: %v)", aborted, n-1, err)
	}
	if st := w.Checkpoints(); st != nil && st.Len() != 0 {
		t.Errorf("aborted barrier committed %d snapshots, want 0", st.Len())
	}
}

// TestCheckpointRestoreMail checkpoints with an in-flight unexpected message
// (sent, fully delivered, never received) and crashes a bystander afterwards:
// the restarted world must deliver the checkpointed mail to a receive posted
// after the restore — no resend — and per-destination sequence numbering must
// continue where the snapshot left it.
func TestCheckpointRestoreMail(t *testing.T) {
	const n = 4
	payload := []byte("mail that must survive the restart")
	second := []byte("sent after the restore")
	opts := DefaultOptions()
	opts.FaultPlan = fault.NewPlan().RankCrash(2, 150*sim.Microsecond)
	w := testWorld(t, "native", n, opts)
	delivered := false
	rep, err := w.RunRecoverable(RecoverOptions{MaxRestarts: 1}, func(r *Rank) error {
		if _, _, restored := r.Restored(); !restored {
			// First attempt: stage the mail, checkpoint, then idle into the
			// bystander's crash.
			if r.Rank() == 0 {
				r.Send(1, 7, payload)
			}
			r.Barrier()
			if err := r.Checkpoint(nil); err != nil {
				return err
			}
			r.Compute(50000)
			r.Barrier()
			return fmt.Errorf("rank %d: first attempt survived to the end", r.Rank())
		}
		// Restored attempt: the message is in rank 1's restored mail.
		if r.Rank() == 1 {
			buf := make([]byte, len(payload))
			st := r.Recv(0, 7, buf)
			if st.Source != 0 || st.Bytes != len(payload) || !bytes.Equal(buf, payload) {
				return fmt.Errorf("restored mail = %q (status %+v), want %q", buf, st, payload)
			}
			delivered = true
		}
		// Sequence counters must have been restored too, or this match
		// would go out of order against the restored mail's numbering.
		if r.Rank() == 0 {
			r.Send(1, 8, second)
		}
		if r.Rank() == 1 {
			buf := make([]byte, len(second))
			if st := r.Recv(0, 8, buf); !bytes.Equal(buf, second) || st.Bytes != len(second) {
				return fmt.Errorf("post-restore send = %q, want %q", buf, second)
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatalf("recoverable run: %v", err)
	}
	if rep.Attempts != 2 || !rep.Recovered {
		t.Errorf("report = %+v, want a recovered second attempt", rep)
	}
	if !delivered {
		t.Error("restored mail was never delivered")
	}
}

// TestShrinkPlanEndToEnd drives the chaos-shrinking loop against the real
// simulator: a noisy random plan with a fatal crash folded in fails a
// recovery-free job, and ShrinkPlan reduces it to the single event that
// matters while preserving the repro seed.
func TestShrinkPlanEndToEnd(t *testing.T) {
	const seed = 42
	plan := fault.RandomPlan(seed, 1, 4, 6, 200*sim.Microsecond)
	plan.RankCrash(1, 40*sim.Microsecond)
	fails := func(p *fault.Plan) bool {
		opts := DefaultOptions()
		opts.ErrHandler = ErrorsRecover
		opts.FaultPlan = p
		w := testWorld(t, "native", 4, opts)
		err := w.Run(func(r *Rank) error {
			vec := EncodeFloat64s(make([]float64, 4096))
			for round := 0; round < 3; round++ {
				r.Allreduce(vec, SumFloat64)
				if r.Failed() {
					return fmt.Errorf("rank %d: peer died", r.Rank())
				}
				r.Compute(500)
			}
			return nil
		})
		var ce *CrashError
		return errors.As(err, &ce)
	}
	if !fails(plan) {
		t.Fatal("the seeded plan does not reproduce the failure")
	}
	min := fault.ShrinkPlan(plan, fails)
	if len(min.Events) != 1 {
		t.Fatalf("shrunk plan has %d events, want 1: %+v", len(min.Events), min.Events)
	}
	e := min.Events[0]
	if e.Kind != fault.RankCrash || e.Rank != 1 {
		t.Errorf("shrunk to %+v, want the rank-1 crash", e)
	}
	if min.Seed != plan.Seed {
		t.Errorf("shrunk plan lost the repro seed: %d, want %d", min.Seed, plan.Seed)
	}
	if !fails(min) {
		t.Error("the shrunk plan no longer reproduces the failure")
	}
}

// TestPruneFaultPlanShrinkRemap audits the shrink-policy path of
// pruneFaultPlan against the real shrink mapping: the fired crash is
// dropped, pending rank-targeted events remap to the survivors' compacted
// numbering (the highest surviving rank lands at newSize-1, never at or
// beyond the new world size), wildcards and host-targeted events pass
// through untouched, and the pruned plan validates against the shrunken
// geometry — the same check NewWorld applies on restart.
func TestPruneFaultPlanShrinkRemap(t *testing.T) {
	spec := cluster.Spec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Native(cluster.MustNew(spec), 16)
	if err != nil {
		t.Fatal(err)
	}
	dead := []int{5}
	nd, mapping, err := cluster.Shrink(d, dead)
	if err != nil {
		t.Fatal(err)
	}
	us := func(n int) sim.Time { return sim.Time(n) * sim.Microsecond }
	plan := fault.NewPlan().
		RankCrash(5, us(40)).                    // fired: the restart must not re-kill
		RankCrash(7, us(900)).                   // pending, survivor: 7 -> 6
		Straggler(15, us(10), us(50), 2).        // pending, highest surviving rank: 15 -> 14
		Straggler(fault.Any, us(20), us(30), 3). // wildcard: kept as Any
		CMAFail(0, us(5), us(10))                // host-targeted: kept verbatim
	plan.Seed = 77
	got := pruneFaultPlan(plan, dead, mapping, rec.PolicyShrink)
	want := []fault.Event{
		{Kind: fault.RankCrash, Rank: 6, At: us(900)},
		{Kind: fault.Straggler, Rank: 14, At: us(10), Duration: us(50), Factor: 2},
		{Kind: fault.Straggler, Rank: fault.Any, At: us(20), Duration: us(30), Factor: 3},
		{Kind: fault.CMAFail, Host: 0, At: us(5), Duration: us(10)},
	}
	if !reflect.DeepEqual(got.Events, want) {
		t.Fatalf("pruned events:\n%+v\nwant:\n%+v", got.Events, want)
	}
	if got.Seed != plan.Seed {
		t.Errorf("pruned plan lost the repro seed: %d, want %d", got.Seed, plan.Seed)
	}
	if _, err := fault.NewInjector(got, spec.Hosts, nd.Size()); err != nil {
		t.Errorf("pruned plan fails validation against the shrunken geometry: %v", err)
	}
}

// TestShrinkRemapsPendingStraggler is the end-to-end regression for the
// shrink + pending-straggler case: a crash triggers a shrink restart while a
// straggler aimed at the highest surviving rank is still armed. The restart
// must remap it to the new numbering (un-remapped, its old target equals the
// new world size and world construction would fail) and actually apply it —
// the shrunken world runs measurably slower than the same recovery without
// the straggler — while the golden workload still lands byte-identical.
func TestShrinkRemapsPendingStraggler(t *testing.T) {
	var base []float64
	mw := testWorld(t, "2host", 16, DefaultOptions())
	if _, err := mw.RunRecoverable(RecoverOptions{}, goldenBody(&base, nil)); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	crashAt := mw.MaxBodyTime() * 3 / 5

	run := func(straggle bool) (*rec.Report, []float64) {
		plan := fault.NewPlan().RankCrash(5, crashAt)
		if straggle {
			// Open window from t=0 so the slowdown spans the restarted
			// world too; rank 15 is the highest survivor (5 dies) and maps
			// to 14 in the 15-rank world.
			plan.Straggler(15, 0, 0, 8)
		}
		opts := DefaultOptions()
		opts.FaultPlan = plan
		w := testWorld(t, "2host", 16, opts)
		var got []float64
		rep, err := w.RunRecoverable(
			RecoverOptions{Policy: rec.PolicyShrink, MaxRestarts: 3},
			goldenBody(&got, nil))
		if err != nil {
			t.Fatalf("straggle=%v: %v", straggle, err)
		}
		return rep, got
	}
	plain, _ := run(false)
	slow, got := run(true)
	if slow.Attempts != 2 || slow.FinalSize != 15 {
		t.Errorf("report = %+v, want 2 attempts at final size 15", slow)
	}
	if !reflect.DeepEqual(got, base) {
		t.Error("recovered final array differs from the fault-free run")
	}
	if slow.FinalTime <= plain.FinalTime {
		t.Errorf("straggler on the remapped rank did not slow the shrunken world: %v <= %v",
			slow.FinalTime, plain.FinalTime)
	}
}
