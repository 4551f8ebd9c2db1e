package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"cmpi/internal/fault"
	"cmpi/internal/invariant"
	"cmpi/internal/trace"
)

// Determinism of dispatch: the same job must produce the same application
// results, profiles, and scheduler counters traced or not and world after
// world. Each comparison is a row of the invariance harness
// (internal/invariant) over World.Digest and, with a recording base, the
// trace bytes. (The test names are from when the engine dispatched in
// epochs.)

// mixedWorkload drives every channel in one job: SHM/CMA eager and
// rendezvous inside containers, HCA eager and rendezvous across hosts,
// world collectives, and a communicator split followed by subcommunicator
// traffic.
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

	// Split + subcommunicator traffic: the regression surface of the Gather
	// deadlock.
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

// TestEpochDispatchDeterministicResults locks in the invariant at the MPI
// layer: recording a trace changes none of the application-visible results,
// profiles, and scheduler counters.
func TestEpochDispatchDeterministicResults(t *testing.T) {
	invariant.Check(t, mixedJob(nil, nil), invariant.Point{Record: true}, invariant.Point{})
}

// TestEpochDispatchManyWorldsUnderRace runs several mixed jobs back to back:
// each later world starts on the depot the earlier ones filled, and must
// simulate and record exactly what the first did.
func TestEpochDispatchManyWorldsUnderRace(t *testing.T) {
	rec := invariant.Point{Record: true}
	invariant.Check(t, mixedJob(nil, nil), rec, rec, rec, rec)
}
