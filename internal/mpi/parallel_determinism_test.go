package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"cmpi/internal/fault"
	"cmpi/internal/invariant"
	"cmpi/internal/trace"
)

// Determinism of the conservative epoch dispatch: the same job must produce
// the same application results, profiles, and scheduler counters at every
// dispatch width, including width one — group formation is decided by event
// times and footprints alone, never by worker scheduling. Each comparison is
// a row of the invariance harness (internal/invariant) over World.Digest and,
// with a recording base, the trace bytes: every width comparison below also
// pins trace byte-identity.

// mixedWorkload drives every channel in one job: SHM/CMA eager and
// rendezvous inside containers, HCA eager and rendezvous across hosts,
// world collectives, and a communicator split followed by subcommunicator
// traffic (the serialized-dispatch transition).
func mixedWorkload(r *Rank) error {
	n := r.Size()
	me := r.Rank()

	// Eager ring exchange.
	small := make([]byte, 64)
	for i := range small {
		small[i] = byte(me + i)
	}
	in := make([]byte, 64)
	r.Sendrecv((me+1)%n, 1, small, (me-1+n)%n, 1, in)
	if in[0] != byte((me-1+n)%n) {
		return fmt.Errorf("ring: got %d", in[0])
	}

	// Rendezvous to the rank two over (crosses container and host borders).
	big := make([]byte, 256<<10)
	for i := range big {
		big[i] = byte(me * (i + 1))
	}
	rq := r.Irecv(AnySource, 2, make([]byte, 256<<10))
	r.Send((me+2)%n, 2, big)
	r.Wait(rq)

	// World collectives.
	sum := EncodeInt64s([]int64{int64(me)})
	r.Allreduce(sum, SumInt64)
	if got := DecodeInt64s(sum)[0]; got != int64(n*(n-1)/2) {
		return fmt.Errorf("allreduce: got %d", got)
	}

	// Split + subcommunicator traffic: flips the engine into serialized
	// dispatch mid-run, the regression surface of the Gather deadlock.
	sub := r.CommWorld().Split(me%2, me)
	mine := []byte{byte(me)}
	var all []byte
	if sub.Rank() == 0 {
		all = make([]byte, sub.Size())
	}
	sub.Gather(0, mine, all)
	back := make([]byte, 1)
	sub.Scatter(0, all, back)
	if back[0] != byte(me) {
		return fmt.Errorf("scatter: got %d", back[0])
	}
	r.Barrier()
	return nil
}

// row is one harness row over one world: build makes it from opts — with a
// recorder when the point asks for a trace — run drives it, and check, when
// set, looks at the finished world. Its result is the world's digest and the
// recorded trace.
func row(build func(*testing.T, Options) *World, opts Options, run func(*World) error, check worldCheck) invariant.Run {
	return func(t *testing.T, p invariant.Point) invariant.Result {
		t.Helper()
		var stream bytes.Buffer
		o := opts
		if p.Record {
			o.Record = trace.NewRecorder(&stream)
		}
		w := build(t, o)
		if err := run(w); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if p.Record && o.Record.Err() != nil {
			t.Fatalf("%+v: recorder: %v", p, o.Record.Err())
		}
		if check != nil {
			check(t, p, w)
		}
		return invariant.Result{Digest: w.Digest(), Trace: stream.Bytes()}
	}
}

// worldCheck looks at a row's finished world.
type worldCheck func(*testing.T, invariant.Point, *World)

// scenario builds n-rank testWorlds of one scenario.
func scenario(name string, n int) func(*testing.T, Options) *World {
	return func(t *testing.T, opts Options) *World { return testWorld(t, name, n, opts) }
}

// blocking runs a blocking body on every rank.
func blocking(body func(*Rank) error) func(*World) error {
	return func(w *World) error { return w.Run(body) }
}

// mixedJob is mixedWorkload on 16 ranks over two hosts, profiled, under an
// optional fault plan.
func mixedJob(plan *fault.Plan, check worldCheck) invariant.Run {
	opts := DefaultOptions()
	opts.Profile = true
	opts.FaultPlan = plan
	return row(scenario("2host4cont", 16), opts, blocking(mixedWorkload), check)
}

// TestEpochDispatchDeterministicResults locks in the tentpole invariant at
// the MPI layer: application-visible results, profiles, and scheduler
// counters are identical for every dispatch width, including one, and
// recording a trace changes none of them.
func TestEpochDispatchDeterministicResults(t *testing.T) {
	rec := invariant.Point{Record: true}
	invariant.Check(t, mixedJob(nil, nil), rec, append(invariant.Widths(rec, 2, 4, 8), invariant.Point{})...)
}

// pairwiseWorkload exchanges messages only between even/odd partners in the
// same container (rank me <-> me^1): the communication graph is 8 disjoint
// pairs, so epoch dispatch must find independent groups. A claimed pair
// stays in the footprint at least until it is quiescent past its decay
// window (Rank.footprint), so a globally coupled phase (a ring, a
// collective) would collapse the world into one group while it runs; this
// workload has none.
func pairwiseWorkload(r *Rank) error {
	me := r.Rank()
	partner := me ^ 1
	small := make([]byte, 64)
	in := make([]byte, 64)
	big := make([]byte, 256<<10)
	bin := make([]byte, 256<<10)
	for iter := 0; iter < 8; iter++ {
		for i := range small {
			small[i] = byte(me + i + iter)
		}
		r.Sendrecv(partner, 1, small, partner, 1, in)
		if in[0] != byte(partner+iter) {
			return fmt.Errorf("iter %d: got %d", iter, in[0])
		}
		rq := r.Irecv(partner, 2, bin)
		r.Send(partner, 2, big)
		r.Wait(rq)
	}
	return nil
}

// TestEpochDispatchEngages checks the parallel path actually finds
// independence (epochs formed, more than one group observed) so the
// determinism test above cannot silently pass by never forming a non-trivial
// partition.
func TestEpochDispatchEngages(t *testing.T) {
	opts := DefaultOptions()
	opts.Profile = true
	w := testWorld(t, "2host4cont", 16, opts)
	w.Eng.SetWorkers(4)
	if err := w.Run(pairwiseWorkload); err != nil {
		t.Fatal(err)
	}
	st := w.SimStats()
	if st.ParallelBatches == 0 {
		t.Error("ParallelBatches = 0; epoch dispatch never engaged")
	}
	if st.MaxBatchWidth < 2 {
		t.Errorf("MaxBatchWidth = %d; want >= 2 independent groups", st.MaxBatchWidth)
	}
}

// TestFaultWorldsFormOneGroup checks the injector gate: a world with a fault
// plan declares no footprints — plan queries mutate shared state — so every
// epoch is one Global group whatever the configured width, and the results
// are identical at any width setting.
func TestFaultWorldsFormOneGroup(t *testing.T) {
	oneGroup := func(t *testing.T, p invariant.Point, w *World) {
		if st := w.SimStats(); st.ParallelBatches == 0 || st.MaxBatchWidth != 1 {
			t.Errorf("%+v: ParallelBatches = %d, MaxBatchWidth = %d with a fault plan; want epochs formed, each one group wide",
				p, st.ParallelBatches, st.MaxBatchWidth)
		}
	}
	invariant.Check(t, mixedJob(fault.NewPlan().Straggler(3, 0, 0, 2.5), oneGroup), invariant.Point{Record: true},
		invariant.Point{Width: 8, Record: true})
}

// TestEpochDispatchManyWorldsUnderRace runs several mixed jobs back to back
// at width 8; under -race this shakes the group worker pool harder than a
// single world does.
func TestEpochDispatchManyWorldsUnderRace(t *testing.T) {
	rec := invariant.Point{Width: 8, Record: true}
	invariant.Check(t, mixedJob(nil, nil), rec, rec, rec, rec)
}

// phasedWorkload drives three communication phases with different coupling,
// the adaptive-decay regression surface:
//
//   - a shifted ring (me -> me+1): every rank's claim chains into its
//     neighbour's, so footprints converge to one world-wide group;
//   - disjoint pairs (me <-> me^1): once the ring pairs decay, the world
//     re-widens into 8 independent groups — impossible if a claimed pair
//     never left the footprint, because the ring coupling would be permanent;
//   - shifted pairs (me <-> me^2): every claim crosses a phase-2 group
//     boundary, so the transition is a regroup-yield storm that the
//     phase-change detector must convert into eager re-widening.
func phasedWorkload(r *Rank) error {
	n := r.Size()
	me := r.Rank()
	small := make([]byte, 64)
	in := make([]byte, 64)
	exchange := func(peer, tag, iter int) error {
		for i := range small {
			small[i] = byte(me + i + iter)
		}
		r.Sendrecv(peer, tag, small, peer, tag, in)
		if in[0] != byte(peer+iter) {
			return fmt.Errorf("tag %d iter %d: got %d, want %d", tag, iter, in[0], byte(peer+iter))
		}
		return nil
	}
	for iter := 0; iter < 4; iter++ {
		for i := range small {
			small[i] = byte(me + i + iter)
		}
		prev := (me - 1 + n) % n
		r.Sendrecv((me+1)%n, 1, small, prev, 1, in)
		if in[0] != byte(prev+iter) {
			return fmt.Errorf("ring iter %d: got %d, want %d", iter, in[0], byte(prev+iter))
		}
	}
	for iter := 0; iter < 16; iter++ {
		if err := exchange(me^1, 2, iter); err != nil {
			return err
		}
	}
	for iter := 0; iter < 8; iter++ {
		if err := exchange(me^2, 3, iter); err != nil {
			return err
		}
	}
	return nil
}

// phasedJob is phasedWorkload on 16 ranks over two hosts, profiled.
func phasedJob(check worldCheck) invariant.Run {
	opts := DefaultOptions()
	opts.Profile = true
	return row(scenario("2host4cont", 16), opts, blocking(phasedWorkload), check)
}

// TestPhasedWorkloadDeterministicAcrossWidths pins footprint decay's
// correctness contract: the phased job's application results, profiles and
// scheduler counters (World.Digest) are identical at widths 1/2/4/8.
func TestPhasedWorkloadDeterministicAcrossWidths(t *testing.T) {
	rec := invariant.Point{Record: true}
	invariant.Check(t, phasedJob(nil), rec, invariant.Widths(rec, 2, 4, 8)...)
}

// TestPairsDecayAndRewidenAfterPhaseChange is the behavioral claim behind
// footprint decay: the ring phase couples the whole world, the ring pairs
// then quiesce out of the footprints so the pairwise phase re-widens, and
// the me^1 -> me^2 transition trips the phase-change detector. The widest
// epoch is pinned: a footprint that never shed a claimed pair narrows nothing
// and never gets past 3 groups on this job.
func TestPairsDecayAndRewidenAfterPhaseChange(t *testing.T) {
	invariant.At(t, phasedJob(func(t *testing.T, _ invariant.Point, w *World) {
		st := w.SimStats()
		if st.NarrowedPairs == 0 {
			t.Error("no pair was narrowed; footprint decay never engaged")
		}
		if st.MaxBatchWidth != 4 {
			t.Errorf("MaxBatchWidth = %d, want 4: the pairwise phase must re-widen after the ring", st.MaxBatchWidth)
		}
		if st.PhaseRewidens == 0 {
			t.Error("no phase change detected; want >= 1 for the me^1 -> me^2 transition")
		}
	}), invariant.Point{Width: 4})
}

// TestReleaseClaimStrictGuard checks the claim-accounting debug hook: a
// release with no matching claim must panic under claimStrict instead of
// driving the per-side count negative (which would pin the pair in both
// footprints forever and silently serialize the job).
func TestReleaseClaimStrictGuard(t *testing.T) {
	claimStrict = true
	t.Cleanup(func() { claimStrict = false })
	err := testWorld(t, "2cont", 4, DefaultOptions()).Run(func(r *Rank) error {
		if r.Rank() != 0 {
			return nil
		}
		panicked := false
		func() {
			defer func() { panicked = recover() != nil }()
			r.releaseClaim(&Request{hasClaim: true, pr: r.peer(1)})
		}()
		if !panicked {
			return fmt.Errorf("release with no outstanding claim did not panic under claimStrict")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClaimAccountingBalanced runs the full mixed job with strict claim
// accounting: any double release anywhere in the protocol stack panics the
// world instead of passing silently.
func TestClaimAccountingBalanced(t *testing.T) {
	claimStrict = true
	t.Cleanup(func() { claimStrict = false })
	invariant.At(t, mixedJob(nil, nil), invariant.Point{Width: 4})
	invariant.At(t, phasedJob(nil), invariant.Point{Width: 4})
}
