package main

import (
	"encoding/binary"
	"fmt"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/graph500"
	"cmpi/internal/ib"
	"cmpi/internal/mpi"
	"cmpi/internal/npb"
	"cmpi/internal/osu"
	rec "cmpi/internal/recover"
	"cmpi/internal/sim"
	"cmpi/internal/trace"
)

// workload is one set of inputs the benchmark runs. The constants inside
// each run function were tuned once so a repetition lands near one second on
// two cores, and are frozen: changing them starts a new baseline.
type workload struct {
	name string
	why  string
	run  func(p *pass)
}

var workloads = []workload{
	{"pt2pt-local", "co-resident pair, locality-aware: shmem rings and cma single-copy carry all traffic, ib idles after init", runPt2ptLocal},
	{"pt2pt-hca", "the same program over HCA loopback (stock library) and the HCA wire: ib QPs, RTS/CTS and sim callbacks do the work", runPt2ptHCA},
	{"coll-64", "64 ranks of blocking collectives: mpi matching, claims, algorithms and sim epoch formation over goroutine bodies", runColl64},
	{"apps-32", "Graph 500 and NPB class S on 32 ranks: host compute in rank bodies, so a messaging gain should move it little", runApps32},
	{"scale-1024", "1024-rank machine-native allreduce on a fat tree plus the 4096-rank proxy: the flat engine, steppers and spine bookings", runScale1024},
	{"faults-16", "allreduce under a seeded fault plan with a recorder, then crash and respawn: the classic dispatch loop, injector, retransmit, checkpoint", runFaults16},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- pt2pt ------------------------------------------------------------------

// The small half costs per message, the large half per byte; both use the
// same layers, so a gain for one that costs the other shows. 8 KiB is left
// out: it is the SHM-eager/CMA switch point, and a jittered size must not
// change protocol from seed to seed.
var (
	smallSizes = osu.PowersOfTwo(1, 4<<10)
	largeLocal = osu.PowersOfTwo(16<<10, 1<<20)
	largeHCA   = osu.PowersOfTwo(16<<10, 256<<10)
)

// coResidentPair deploys two single-rank containers on one socket of host 0.
func coResidentPair(c *cluster.Cluster) (*cluster.Deployment, error) {
	return cluster.TwoContainersSockets(c, true, cluster.PaperScenarioOpts())
}

// pt2ptProgram runs the OSU pt2pt suite plus a patterned verify round on
// fresh worlds of one deployment. smallIters and largeIters are set so each
// half is about half of the program's host time.
func pt2ptProgram(p *pass, tag string, hosts int, deploy deployFn, opts mpi.Options, large []int, smallIters, rateIters, largeIters int) {
	small := osu.Config{Iters: p.iters(smallIters), Warmup: p.iters(smallIters / 10), Window: 64}
	// MessageRate posts Window messages per iteration, so it gets its own,
	// smaller, iteration count.
	rate := osu.Config{Iters: p.iters(rateIters), Warmup: 1, Window: 64}
	big := osu.Config{Iters: p.iters(largeIters), Warmup: 1, Window: 16}
	type bench struct {
		name  string
		fn    func(*mpi.World, []int, osu.Config) (osu.Series, error)
		sizes []int
		cfg   osu.Config
	}
	smallSweep, largeSweep := p.sizes(smallSizes, 1), p.sizes(large, 1)
	for _, b := range []bench{
		{"osu.Latency.small", osu.Latency, smallSweep, small},
		{"osu.MessageRate.small", osu.MessageRate, smallSweep, rate},
		{"osu.PutLatency.small", osu.PutLatency, smallSweep, small},
		{"osu.GetLatency.small", osu.GetLatency, smallSweep, small},
		{"osu.Latency.large", osu.Latency, largeSweep, big},
		{"osu.Bandwidth.large", osu.Bandwidth, largeSweep, big},
		{"osu.BiBandwidth.large", osu.BiBandwidth, largeSweep, big},
		{"osu.PutBandwidth.large", osu.PutBandwidth, largeSweep, big},
	} {
		name := tag + "/" + b.name
		p.job(name, hosts, deploy, opts, func(w *mpi.World) error {
			s, err := b.fn(w, b.sizes, b.cfg)
			p.series(name, b.sizes, s, err)
			return nil
		})
	}
	verify := append(append([]int(nil), smallSweep...), largeSweep...)
	p.job(tag+"/verify", hosts, deploy, opts, func(w *mpi.World) error {
		return verifyPair(p, w, verify)
	})
}

// verifyPair bounces a patterned payload of every size between ranks 0 and 1
// two-sided and one-sided, checking every byte on arrival.
func verifyPair(p *pass, w *mpi.World, sizes []int) error {
	rc := newRankChecks(w.Size())
	maxSz := 0
	for _, sz := range sizes {
		maxSz = max(maxSz, sz)
	}
	err := w.Run(func(r *mpi.Rank) error {
		me := r.Rank()
		win := r.WinCreate(make([]byte, maxSz))
		defer win.Free()
		for i, sz := range sizes {
			buf := make([]byte, sz)
			if me == 0 {
				pattern(buf, p.seed, i)
				r.Send(1, i, buf)
				r.Recv(1, i, buf)
				rc.ok(me, patternOK(buf, p.seed, i+1000))
			} else {
				r.Recv(0, i, buf)
				rc.ok(me, patternOK(buf, p.seed, i))
				pattern(buf, p.seed, i+1000)
				r.Send(0, i, buf)
			}
			// One-sided: rank 0 puts a pattern into rank 1's window and gets
			// it back.
			win.Fence()
			if me == 0 {
				pattern(buf, p.seed, i+2000)
				win.Put(1, 0, buf)
				win.Flush()
				back := make([]byte, sz)
				win.Get(1, 0, back)
				win.Flush()
				rc.ok(me, patternOK(back, p.seed, i+2000))
			}
			win.Fence()
		}
		return nil
	})
	p.fold("verify", rc)
	return err
}

func runPt2ptLocal(p *pass) {
	pt2ptProgram(p, "intra", 1, coResidentPair, mpi.DefaultOptions(), largeLocal, 4000, 100, 8)
}

func runPt2ptHCA(p *pass) {
	// (a) The paper's "Def" column: the co-resident pair under the stock
	// library, which sees two hostnames and goes through the HCA loopback.
	pt2ptProgram(p, "loopback", 1, coResidentPair, mpi.StockOptions(), largeHCA, 1000, 30, 12)
	// (b) One rank per host: the HCA wire.
	pt2ptProgram(p, "wire", 2, containers(1, 2), mpi.DefaultOptions(), largeHCA, 1000, 30, 12)
}

// --- coll-64 ----------------------------------------------------------------

var collSizes = []int{16, 1 << 10, 16 << 10}

func runColl64(p *pass) {
	deploy := containers(2, 64)
	cfg := osu.Config{Iters: p.iters(4), Warmup: 1}
	for _, kind := range []osu.CollectiveKind{osu.Bcast, osu.Allreduce, osu.Allgather, osu.Alltoall} {
		// Only the Bcast sweep is jittered. An Allreduce buffer that does not
		// divide by the rank count changes algorithm, and the virtual time of
		// Allgather and Alltoall is chaotic in the byte count (8 bytes fewer
		// reorder the HCA contention and move Allgather by up to 5%), which
		// between seeds would swamp virt_ms's bound.
		sizes := collSizes
		if kind == osu.Bcast {
			sizes = p.sizes(collSizes, 8)
		}
		name := "osu.Collective." + kind.String()
		p.job(name, 4, deploy, mpi.DefaultOptions(), func(w *mpi.World) error {
			s, err := osu.Collective(w, kind, sizes, cfg)
			p.series(name, sizes, s, err)
			return nil
		})
	}
	p.job("coll.verify", 4, deploy, mpi.DefaultOptions(), func(w *mpi.World) error {
		return verifyCollectives(p, w, collSizes)
	})
}

// verifyCollectives checks every collective of the workload against its
// closed-form result, on every rank.
func verifyCollectives(p *pass, w *mpi.World, sizes []int) error {
	rc := newRankChecks(w.Size())
	err := w.Run(func(r *mpi.Rank) error {
		me, n := r.Rank(), r.Size()
		for i, sz := range sizes {
			// Bcast: the root's pattern arrives everywhere.
			buf := make([]byte, sz)
			if me == 0 {
				pattern(buf, p.seed, i)
			}
			r.Bcast(0, buf)
			rc.ok(me, patternOK(buf, p.seed, i))

			// Allreduce: element e of rank k is (k+1) + e, so the sum is
			// n(n+1)/2 + n*e.
			for e := 0; e+8 <= sz; e += 8 {
				binary.LittleEndian.PutUint64(buf[e:], uint64(me+1+e/8))
			}
			r.Allreduce(buf[:sz/8*8], mpi.SumInt64)
			ok := true
			for e := 0; e+8 <= sz; e += 8 {
				ok = ok && int64(binary.LittleEndian.Uint64(buf[e:])) == int64(n*(n+1)/2+n*(e/8))
			}
			rc.ok(me, ok)

			// Allgather: rank k contributes pattern k.
			pattern(buf, p.seed, me)
			all := make([]byte, sz*n)
			r.Allgather(buf, all)
			ok = true
			for k := 0; k < n; k++ {
				ok = ok && patternOK(all[k*sz:(k+1)*sz], p.seed, k)
			}
			rc.ok(me, ok)

			// Alltoall: the chunk from rank a to rank b is pattern a*n+b.
			send := make([]byte, sz*n)
			for k := 0; k < n; k++ {
				pattern(send[k*sz:(k+1)*sz], p.seed, me*n+k)
			}
			r.Alltoall(send, all, sz)
			ok = true
			for k := 0; k < n; k++ {
				ok = ok && patternOK(all[k*sz:(k+1)*sz], p.seed, k*n+me)
			}
			rc.ok(me, ok)
			r.Barrier()
		}
		return nil
	})
	p.fold("coll.verify", rc)
	return err
}

// --- apps-32 ----------------------------------------------------------------

func runApps32(p *pass) {
	deploy := containers(4, 32)
	// The graph and its roots are the paper's (DefaultParams' seed), not the
	// run's: other Kronecker seeds move host_s by 15% and alloc_mb by 6%,
	// far beyond the bounds. The run's seed draws the aggregation buffer,
	// at or just above 8 KiB so batches stay on the rendezvous path.
	gp := graph500.DefaultParams(12)
	gp.Roots = 2
	gp.CoalesceBytes += 16 * p.rng.Intn(5) // whole (vertex, parent) pairs
	if p.div > 1 {
		gp.Scale, gp.Roots = 10, 1
	}
	modes := []struct {
		tag  string
		opts mpi.Options
	}{{"stock", mpi.StockOptions()}, {"opt", mpi.DefaultOptions()}}
	for _, m := range modes {
		name := "graph500.Run." + m.tag
		p.job(name, 4, deploy, m.opts, func(w *mpi.World) error {
			res, err := graph500.Run(w, gp)
			p.check(err == nil && res.Validated, "%s: validated=%v err=%v", name, res.Validated, err)
			for i, t := range res.BFSTimes {
				p.result(fmt.Sprintf("%s.bfs%d_ns", name, i), t.Nanos())
			}
			return nil
		})
	}
	kernels := []struct {
		name string
		run  npb.Kernel
	}{{"CG", npb.RunCG}, {"EP", npb.RunEP}, {"FT", npb.RunFT}, {"IS", npb.RunIS}, {"MG", npb.RunMG}}
	for _, m := range modes {
		for _, k := range kernels {
			name := "npb." + k.name + "." + m.tag
			p.job(name, 4, deploy, m.opts, func(w *mpi.World) error {
				res, err := k.run(w, npb.ClassS)
				p.check(err == nil && res.Verified, "%s: verified=%v err=%v", name, res.Verified, err)
				p.result(name+".time_ns", res.Time.Nanos())
				return nil
			})
		}
	}
}

// --- scale-1024 -------------------------------------------------------------

// scaleTopo is the repro scale fat tree: 8-host racks under a two-stage spine.
var scaleTopo = ib.Topology{RackSize: 8, SpineStages: 2, SpinesPerStage: 4, HopLatency: 150 * sim.Nanosecond}

// scaleOptions is the default library on the scale fat tree.
func scaleOptions() mpi.Options {
	opts := mpi.DefaultOptions()
	opts.Topology = scaleTopo
	return opts
}

func runScale1024(p *pass) {
	opts := scaleOptions()
	deploy := containers(2, 1024)
	// AllreduceProgram checks every element of every round and aborts the job
	// on a mismatch, so a nil error is the self-check.
	small := p.jitter(1<<10, 8)
	p.job("RunMachine.allreduce1k", 64, deploy, opts, func(w *mpi.World) error {
		return w.RunMachine(mpi.AllreduceProgram(p.iters(2), small))
	})
	// The bandwidth-optimal stepper, forced: on this mostly-remote deployment
	// the selector would pick the ring, whose 2046 steps x 1024 ranks cost
	// over 5 s of host time at any size. 32 KiB keeps the halving exchanges
	// at or below the HCA eager threshold; it is not jittered, because a
	// buffer that does not divide by the rank count falls back to the ring.
	rab := opts
	rab.Tunables.AllreduceAlgo = core.AllreduceRabenseifner
	const large = 32 << 10
	p.job("RunMachine.allreduce32k", 64, deploy, rab, func(w *mpi.World) error {
		return w.RunMachine(mpi.AllreduceProgram(1, large))
	})
	end := p.tr.begin("mpi.RunScale")
	res, err := mpi.RunScale(mpi.ScaleOptions{
		Ranks: 4096, RanksPerHost: 32, Bytes: p.jitter(1<<20, 8), Iters: p.iters(4), Topology: scaleTopo,
	})
	end()
	p.check(err == nil, "mpi.RunScale: %v", err)
	if err == nil {
		p.addVirt("mpi.RunScale", res.Time)
		p.addSim(res.Sim)
	}
}

// --- faults-16 --------------------------------------------------------------

// allreduceRounds is the faults-16 body: rounds of a self-checked 256 KiB
// allreduce, checkpointing every second round and resuming from the
// checkpointed round after a restore.
func allreduceRounds(rounds int, rc *rankChecks) func(r *mpi.Rank) error {
	return func(r *mpi.Rank) error {
		start := 0
		if blob, _, ok := r.Restored(); ok {
			start = int(binary.BigEndian.Uint64(blob))
		}
		n := r.Size()
		vec := make([]float64, 32768)
		for round := start; round < rounds; round++ {
			for i := range vec {
				vec[i] = float64(r.Rank() + round)
			}
			buf := mpi.EncodeFloat64s(vec)
			r.Allreduce(buf, mpi.SumFloat64)
			if r.Failed() {
				return fmt.Errorf("rank %d: peer failure in round %d", r.Rank(), round)
			}
			want, ok := float64(n*(n-1)/2+n*round), true
			for _, v := range mpi.DecodeFloat64s(buf) {
				ok = ok && v == want
			}
			rc.ok(r.Rank(), ok)
			if next := round + 1; next%2 == 0 && next < rounds {
				var blob [8]byte
				binary.BigEndian.PutUint64(blob[:], uint64(next))
				if err := r.Checkpoint(blob[:]); err != nil {
					return err
				}
			}
			r.Compute(1000)
		}
		return nil
	}
}

func runFaults16(p *pass) {
	deploy := containers(2, 16)
	rounds := p.iters(30)
	run := func(name string, opts mpi.Options) (elapsed sim.Time) {
		p.job(name, 2, deploy, opts, func(w *mpi.World) error {
			rc := newRankChecks(w.Size())
			err := w.Run(allreduceRounds(rounds, rc))
			p.fold(name, rc)
			elapsed = w.MaxBodyTime()
			if w.Prof != nil {
				p.retrans += w.Prof.TotalFaults().Retransmits
			}
			return err
		})
		return elapsed
	}

	// Fault-free under an empty plan: the injector is consulted on every
	// channel decision and the world takes the classic loop, but nothing
	// fires. Its runtime places the crash below.
	clean := mpi.DefaultOptions()
	clean.FaultPlan = fault.NewPlan()
	healthy := run("World.Run.clean", clean)

	// Host 0 loses CMA and its uplink flaps; host 1 cannot attach message
	// rings and drops a few transmissions, fewer than the RC retry count.
	faulty := mpi.DefaultOptions()
	faulty.FaultPlan = fault.NewPlan().
		LinkFlap(0, sim.Time(40+p.rng.Intn(20))*sim.Microsecond, 300*sim.Microsecond).
		CMAFail(0, 0, 0).
		ShmAttachFail(1, 0, 0, "cmpi.ring.").
		SendDrops(1, 0, 0, 2+p.rng.Intn(3))
	faulty.Record = trace.NewRecorder(nil)
	run("World.Run.faulty", faulty)
	p.check(faulty.Record.Err() == nil && len(faulty.Record.Trace().Records) > 0, "recorder: %v", faulty.Record.Err())

	// The same job loses a rank a little past half-way and is respawned from
	// the latest checkpoint. The window is narrow so that every seed replays
	// about the same number of rounds, and the victim is fixed: which rank of
	// the container dies moves alloc_mb by 1.4%.
	crash := mpi.DefaultOptions()
	crash.FaultPlan = fault.NewPlan().RankCrash(9, healthy*sim.Time(550+p.rng.Intn(20))/1000)
	p.job("World.RunRecoverable", 2, deploy, crash, func(w *mpi.World) error {
		rc := newRankChecks(w.Size())
		rep, err := w.RunRecoverable(mpi.RecoverOptions{Policy: rec.PolicyRespawn, MaxRestarts: 2}, allreduceRounds(rounds, rc))
		p.fold("World.RunRecoverable", rc)
		p.check(err == nil && rep.Recovered, "World.RunRecoverable: recovered=%v attempts=%d err=%v", rep.Recovered, rep.Attempts, err)
		p.addVirt("World.RunRecoverable.final", rep.FinalTime)
		return err
	})
}

// rankChecks lets rank bodies count checks without sharing a counter: each
// rank owns a slot, and the pass folds them in after the run.
type rankChecks struct{ att, bad []int }

func newRankChecks(ranks int) *rankChecks {
	return &rankChecks{att: make([]int, ranks), bad: make([]int, ranks)}
}

func (c *rankChecks) ok(rank int, cond bool) {
	c.att[rank]++
	if !cond {
		c.bad[rank]++
	}
}

func (p *pass) fold(name string, c *rankChecks) {
	for rank := range c.att {
		p.attempted += c.att[rank]
		p.failed += c.bad[rank]
		if c.bad[rank] > 0 && len(p.failures) < 8 {
			p.failures = append(p.failures, fmt.Sprintf("%s: rank %d failed %d of %d checks", name, rank, c.bad[rank], c.att[rank]))
		}
	}
}
