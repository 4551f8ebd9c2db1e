package mpi

import (
	"runtime"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/invariant"
	rec "cmpi/internal/recover"
)

// A world that ended cleanly hands its connection state to the depot
// (World.recycle, ib.Fabric.Recycle), and the next world builds its own from
// it.

// haloJob is a 1-D halo exchange eight neighbours deep on either side: each
// rank names 16 peers, so connection state (peer records, pairs, rings, QPs)
// is most of what its world builds.
func haloJob(r *Rank) error {
	n, me := r.Size(), r.Rank()
	out, in := r.AllocMem(64), r.AllocMem(64)
	for j := 1; j <= 8; j++ {
		r.Sendrecv((me+j)%n, j, out, (me-j+n)%n, j, in)
		r.Sendrecv((me-j+n)%n, -j, out, (me+j)%n, -j, in)
	}
	r.FreeMem(out)
	r.FreeMem(in)
	return nil
}

// TestWarmWorldBytes: the second of two identical 256-rank worlds allocates
// at most a bound of bytes per rank, each figure measured in a process of its
// own. The halo worlds name 16 peers a rank: before worlds handed on their
// connection state, the second allocated 6557 B per rank, after it 2440,
// 1044 since they hand on their ranks and engine arrays too, 712 while
// every rank body still started a new coroutine, and 134 since the bodies
// run on the last world's (about 300 when a 1024-rank machine world ran
// earlier in the process, whose rings the halo world's second run does not
// reuse: ringFor allocates 44 kB, as it did before); the bound is 512. The
// Rabenseifner job of BenchmarkWorldColdWarm,
// whose ranks name log2 P peers, a machine world, allocated 2351 B per rank
// while its rank objects and its engine's arrays stayed with it, 476 once
// they were handed on, and 113 since its programs, their steppers and the
// ranks' detectors go on too, and its ranks and devices keep the arrays of
// their home lists and CQs and come back to the same rank; its bound is 160.
func TestWarmWorldBytes(t *testing.T) {
	const ranks = 256
	d := scaleDeployment(t, ranks)
	halo := DefaultOptions()
	halo.Topology = peerScaleTopo
	rab := halo
	rab.Tunables.AllreduceAlgo = core.AllreduceRabenseifner
	for _, tc := range []struct {
		name       string
		opts       Options
		run        func(w *World) error
		maxPerRank float64
	}{
		{"halo", halo, func(w *World) error { return w.Run(haloJob) }, 512},
		{"rabenseifner", rab, func(w *World) error { return w.RunMachine(AllreduceProgram(1, 32<<10)) }, 160},
	} {
		t.Run(tc.name, func(t *testing.T) {
			world := func() uint64 {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				w, err := NewWorld(d, tc.opts)
				if err == nil {
					err = tc.run(w)
				}
				runtime.ReadMemStats(&m1)
				if err != nil {
					t.Fatal(err)
				}
				return m1.TotalAlloc - m0.TotalAlloc
			}
			world()
			perRank := float64(world()) / ranks
			t.Logf("the second world allocated %.0f B per rank", perRank)
			if perRank > tc.maxPerRank {
				t.Errorf("the second world allocated %.0f B per rank, want at most %.0f", perRank, tc.maxPerRank)
			}
		})
	}
}

// TestFinishedWorldKeepsItsReports: a world that ended cleanly hands its
// ranks to the next one, and what it reports about its run stays its own.
// Its SimStats and Digest, read again after a second world of the same shape
// has run on those very ranks, are what they were right after its Run.
func TestFinishedWorldKeepsItsReports(t *testing.T) {
	opts := DefaultOptions()
	opts.Profile = true
	body := func(ranks map[*Rank]bool) func(r *Rank) error {
		return func(r *Rank) error {
			ranks[r] = true
			buf := make([]byte, 4<<10)
			fillAllreduce(buf, r.Rank(), 0)
			r.Allreduce(buf, SumInt64)
			r.Bcast(r.Size()-1, buf)
			return nil
		}
	}
	first, second := map[*Rank]bool{}, map[*Rank]bool{}
	w := testWorld(t, "2host4cont", 8, opts)
	if err := w.Run(body(first)); err != nil {
		t.Fatal(err)
	}
	stats, digest := w.SimStats(), w.Digest()
	next := testWorld(t, "2host4cont", 8, opts)
	if err := next.Run(body(second)); err != nil {
		t.Fatal(err)
	}
	for r := range second {
		if !first[r] {
			t.Fatalf("the second world ran on a rank the first did not hand on: the test shows nothing")
		}
	}
	if got := w.SimStats(); got != stats {
		t.Errorf("SimStats after the next world: %+v, want %+v as right after Run", got, stats)
	}
	if got := w.Digest(); got != digest {
		t.Errorf("Digest after the next world: %s, want %s as right after Run", got, digest)
	}
}

// TestRecycledStateAcrossWorldShapes runs worlds of eight shapes in a row, each
// building its connection state from what the one before left: a stock
// co-resident pair (HCA loopback, eager and rendezvous), a 64-rank
// locality-aware world of collectives, a world whose plan fails a ring
// attach, a RunRecoverable job whose first attempt crashes, and 40-rank
// machine worlds of AllreduceProgram under recursive doubling, Rabenseifner,
// the ring and the tree, which take their programs and steppers from the
// worlds before them. Their digests and traces must not depend on whether the
// state came from the depot, from a poisoned depot checked on every take, or
// from the allocator.
func TestRecycledStateAcrossWorldShapes(t *testing.T) {
	stock := DefaultOptions()
	local := DefaultOptions()
	local.Mode = core.ModeLocalityAware
	ringFails := DefaultOptions()
	ringFails.FaultPlan = fault.NewPlan().ShmAttachFail(1, 0, 0, "cmpi.ring.")
	steps := []invariant.Run{
		row(scenario("2cont", 2), stock, blocking(func(r *Rank) error {
			peer := 1 - r.Rank()
			for _, size := range []int{64, 4 << 10, 64 << 10} {
				r.Sendrecv(peer, size, make([]byte, size), peer, size, make([]byte, size))
			}
			return nil
		}), nil),
		row(func(t *testing.T, o Options) *World {
			w, err := NewWorld(scaleDeployment(t, 64), o)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}, local, blocking(func(r *Rank) error {
			buf := make([]byte, 1<<10)
			r.Bcast(0, buf)
			fillAllreduce(buf, r.Rank(), 0)
			r.Allreduce(buf, SumInt64)
			r.Alltoall(make([]byte, 256*r.Size()), make([]byte, 256*r.Size()), 256)
			return nil
		}), nil),
		row(scenario("2host4cont", 16), ringFails, blocking(tracedWorkload), nil),
		crashedRecoverable,
	}
	// 40 ranks fold 8 into 32, and 4 KiB divides into their 32 parts, so
	// each forced algorithm runs as asked.
	for _, algo := range []core.AllreduceAlgo{core.AllreduceRecursiveDoubling, core.AllreduceRabenseifner, core.AllreduceRing, core.AllreduceTree} {
		opts := DefaultOptions()
		opts.Tunables.AllreduceAlgo = algo
		steps = append(steps, row(machine(40, machTestTopo), opts, allreduceProgram(2, 4<<10), nil))
	}
	sequence := func(t *testing.T, p invariant.Point) invariant.Result {
		var digests []any
		var tr []byte
		for _, step := range steps {
			res := step(t, p)
			digests = append(digests, res.Digest)
			tr = append(tr, res.Trace...)
		}
		return invariant.Result{Digest: invariant.Sum(digests...), Trace: tr}
	}
	invariant.Check(t, sequence, invariant.Point{Record: true},
		invariant.Point{Record: true, PoolStrict: true},
		invariant.Point{Record: true, DropDepot: true})
}

// TestFailedWorldHandsOnNoProgram: a machine world that a crash aborted
// (ErrorsAreFatal) or failed (ErrorsReturn) leaves its programs and their
// steppers to the collector with the rest of its state, since an operation
// that never finished may still name them. A clean world of the same shape
// hands both on, which shows that the depot tells the two apart.
func TestFailedWorldHandsOnNoProgram(t *testing.T) {
	opts := DefaultOptions()
	run := func(opts Options) (*World, error) {
		core.DropDepot()
		w := machine(8, machTestTopo)(t, opts)
		return w, w.RunMachine(AllreduceProgram(20, 1<<10))
	}
	// handedOn reports whether the depot holds a program and a stepper.
	handedOn := func() [2]bool {
		_, prog := allreduceProgKind.Take()
		_, stepper := mrdKind.Take()
		return [2]bool{prog, stepper}
	}
	clean, err := run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := handedOn(); got != [2]bool{true, true} {
		t.Fatalf("a clean world handed on a program, a stepper: %v; want both", got)
	}
	crashAt := clean.bodyStart[0] + clean.MaxBodyTime()/2
	for _, handler := range []ErrorHandler{ErrorsAreFatal, ErrorsReturn} {
		o := opts
		o.ErrHandler = handler
		o.FaultPlan = fault.NewPlan().RankCrash(3, crashAt)
		if _, err := run(o); err == nil {
			t.Fatalf("%v: the world with a crash ended cleanly", handler)
		}
		if got := handedOn(); got != [2]bool{} {
			t.Errorf("%v: a world that failed handed on a program, a stepper: %v; want neither", handler, got)
		}
	}
	core.DropDepot()
}

// crashedRecoverable is the golden workload on 16 ranks, rank 5 crashing past
// the first checkpoint and respawned. The crashed attempt leaves its state to
// the collector; the restarted one, which ends cleanly, hands its on. A
// recorder serves one world, so this step records nothing.
func crashedRecoverable(t *testing.T, p invariant.Point) invariant.Result {
	free := testWorld(t, "2host", 16, DefaultOptions())
	var want []float64
	if _, err := free.RunRecoverable(RecoverOptions{}, goldenBody(&want, nil)); err != nil {
		t.Fatalf("%+v: fault-free run: %v", p, err)
	}
	opts := DefaultOptions()
	opts.FaultPlan = fault.NewPlan().RankCrash(5, free.MaxBodyTime()*3/5)
	w := testWorld(t, "2host", 16, opts)
	var got []float64
	rep, err := w.RunRecoverable(RecoverOptions{Policy: rec.PolicyRespawn, MaxRestarts: 1}, goldenBody(&got, nil))
	if err != nil {
		t.Fatalf("%+v: recoverable run: %v", p, err)
	}
	if rep.Attempts != 2 || !rep.Recovered {
		t.Fatalf("%+v: report %+v, want a crash and one restart", p, rep)
	}
	return invariant.Result{Digest: invariant.Sum(free.Digest(), w.Digest(), *rep, got)}
}
