package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"cmpi/internal/cluster"
	"cmpi/internal/cma"
	"cmpi/internal/core"
	"cmpi/internal/experiments"
	"cmpi/internal/fault"
	"cmpi/internal/graph500"
	"cmpi/internal/ib"
	"cmpi/internal/mltrain"
	"cmpi/internal/mpi"
	"cmpi/internal/npb"
	"cmpi/internal/osu"
	"cmpi/internal/perf"
	rec "cmpi/internal/recover"
	"cmpi/internal/shmem"
	"cmpi/internal/sim"
	"cmpi/internal/trace"
)

// layers runs the layer drivers of the traced pass. Every driver times one
// layer from outside, through its exported functions only, under a span; the
// work is fixed (not seeded), so a driver's number depends on the code and
// the machine alone. div shrinks the iteration counts for -smoke.
type layers struct {
	res *wlResult
	tr  *tracer
	div int
}

func (l *layers) n(iters int) int { return max(iters/l.div, 1) }

func (l *layers) set(name string, v float64) { l.res.Metrics[name] = layerValue(name, v) }

// must counts a driver step as a check: a driver that cannot run is a
// failure of the benchmark, not a missing number.
func (l *layers) must(what string, err error) bool {
	l.res.Attempted++
	if err != nil {
		l.res.Failed++
		l.res.Failures = append(l.res.Failures, fmt.Sprintf("layer driver %s: %v", what, err))
	}
	return err == nil
}

// world builds a fresh cluster, deployment and world; nil (and a failed
// check) when any step fails.
func (l *layers) world(hosts int, deploy deployFn, opts mpi.Options) *mpi.World {
	d, err := deploy(cluster.MustNew(testbed(hosts)))
	if !l.must("deploy", err) {
		return nil
	}
	w, err := mpi.NewWorld(d, opts)
	if !l.must("mpi.NewWorld", err) {
		return nil
	}
	return w
}

func errIf(cond bool, msg string) error {
	if cond {
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// seconds is the median host time of three runs of fn.
func seconds(fn func()) float64 {
	var s [3]float64
	for i := range s {
		t0 := time.Now()
		fn()
		s[i] = time.Since(t0).Seconds()
	}
	sort.Float64s(s[:])
	return s[1]
}

// overheadPct runs a job three times each without and with an observer,
// alternating so both sides see the same machine state, and returns how much
// longer the median observed run took, in percent.
func overheadPct(run func(on bool) float64) float64 {
	var off, on [3]float64
	for i := range off {
		off[i], on[i] = run(false), run(true)
	}
	sort.Float64s(off[:])
	sort.Float64s(on[:])
	return (on[1]/off[1] - 1) * 100
}

// mallocs is the number of heap objects fn allocates.
func mallocs(fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

func runLayerDrivers(res *wlResult, tr *tracer, smoke bool) {
	l := &layers{res: res, tr: tr, div: 1}
	if smoke {
		l.div = smokeDiv
	}
	for _, d := range []struct {
		name string
		run  func()
	}{
		{"layer.sim", l.simDrivers},
		{"layer.cluster-shmem-core", l.setupDrivers},
		{"layer.cma", l.cmaDrivers},
		{"layer.ib", l.ibDrivers},
		{"layer.mpi.channels", l.channelDrivers},
		{"layer.mpi.collectives", l.collectiveDrivers},
		{"layer.workloads", l.workloadDrivers},
		{"layer.trace-fault-recover-profile", l.observerDrivers},
		{"layer.model", l.modelAnchors},
	} {
		end := tr.begin(d.name)
		d.run()
		end()
	}
}

// --- sim --------------------------------------------------------------------

// sleeper is the Sleep loop of the sim drivers as a continuation machine.
type sleeper struct{ left int }

func (s *sleeper) Step(p *sim.Proc) sim.Flow {
	if s.left == 0 {
		return sim.Done
	}
	s.left--
	p.Sleep(sim.Nanosecond)
	return sim.More
}

// sleepLoop runs procs processes that each Sleep iters times, interleaved in
// virtual time so every event resumes a different process, and returns host
// ns per dispatched event. prep adjusts the engine and each process.
func sleepLoop(procs, iters int, machine bool, prep func(i int, p *sim.Proc)) float64 {
	var events uint64
	s := seconds(func() {
		e := sim.NewEngine()
		e.SetFlat(machine)
		for i := 0; i < procs; i++ {
			var p *sim.Proc
			if machine {
				p = e.GoMachine("m", &sleeper{left: iters})
			} else {
				p = e.Go("p", func(p *sim.Proc) {
					for k := 0; k < iters; k++ {
						p.Sleep(sim.Nanosecond)
					}
				})
			}
			if prep != nil {
				prep(i, p)
			}
		}
		if err := e.Run(); err != nil {
			panic(err) // a Sleep loop cannot deadlock
		}
		events = e.Stats().Dispatched
	})
	return s * 1e9 / float64(events)
}

func (l *layers) simDrivers() {
	const procs = 64
	iters := l.n(2000)
	u0, s0 := cpuTimes()
	sw := sleepLoop(procs, iters, false, nil)
	u1, s1 := cpuTimes()
	l.set("sim.goroutine_switch_ns", sw)
	// The share of the switch loop's CPU spent in the kernel: the futex cost
	// of the resume/yield handshake.
	l.set("sim.sys_frac", (s1-s0)/(u1-u0+s1-s0))

	l.set("sim.machine_step_ns", sleepLoop(procs, iters, true, nil))

	// Heap push, pop and invoke of scheduler callbacks at scattered times.
	n := l.n(200000)
	hits := 0
	bump := func(any) { hits++ }
	cb := seconds(func() {
		e := sim.NewEngine()
		for i := 0; i < n; i++ {
			e.AtArg(sim.Time(i*7919%n), bump, nil)
		}
		if err := e.Run(); err != nil {
			panic(err)
		}
	})
	l.set("sim.callback_ns", cb*1e9/float64(n))

	// The same Sleep loop with a resource and a one-resource footprint per
	// process takes the epoch loop at width 1; what it costs above the plain
	// switch is epoch formation.
	own := func(i int, p *sim.Proc) {
		res := sim.Res(i + 1)
		p.SetRes(res)
		p.SetFootprint(func(buf []sim.Res) []sim.Res { return append(buf, res) })
	}
	l.set("sim.epoch_event_ns", sleepLoop(procs, iters, false, own))

	// 32 independent pairs doing a little host work per event: width 1 over
	// width nproc is what the worker pool buys on this machine.
	pairs := func(width int) float64 {
		return seconds(func() {
			e := sim.NewEngine()
			e.SetWorkers(width)
			for i := 0; i < procs; i++ {
				a, b := sim.Res(i+1), sim.Res(i^1+1)
				p := e.Go("p", func(p *sim.Proc) {
					buf := make([]byte, 4096)
					for k := 0; k < iters/4; k++ {
						for j := range buf {
							buf[j] += byte(j)
						}
						p.Sleep(sim.Nanosecond)
					}
				})
				p.SetRes(a)
				p.SetFootprint(func(buf []sim.Res) []sim.Res { return append(buf, a, b) })
			}
			if err := e.Run(); err != nil {
				panic(err)
			}
		})
	}
	l.set("sim.epoch_width_speedup", pairs(1)/pairs(runtime.NumCPU()))
}

// --- cluster, shmem, core ---------------------------------------------------

func (l *layers) setupDrivers() {
	var d1024, d64 *cluster.Deployment
	l.set("cluster.deploy_1024_ms", 1e3*seconds(func() {
		var err error
		d1024, err = containers(2, 1024)(cluster.MustNew(testbed(64)))
		l.must("deploy 1024", err)
	}))
	d64, err := containers(2, 64)(cluster.MustNew(testbed(4)))
	if !l.must("deploy 64", err) {
		return
	}

	// MPI_Init's locality detection for a 1024-rank job: attach, publish,
	// snapshot on every rank.
	l.set("core.detector_init_us_1024", 1e6*seconds(func() {
		reg := shmem.NewRegistry()
		dets := make([]*core.Detector, d1024.Size())
		for _, pl := range d1024.Placements {
			det, err := core.NewDetector(reg, "bench", pl.Env, pl.Rank, d1024.Size())
			if err != nil {
				panic(err) // a valid rank on a valid container cannot fail
			}
			det.Publish()
			dets[pl.Rank] = det
		}
		for _, det := range dets {
			det.Snapshot()
		}
	}))

	for _, c := range []struct {
		name string
		d    *cluster.Deployment
		opts mpi.Options
	}{{"mpi.newworld_ms_64", d64, mpi.DefaultOptions()}, {"mpi.newworld_ms_1024", d1024, scaleOptions()}} {
		l.set(c.name, 1e3*seconds(func() {
			_, err := mpi.NewWorld(c.d, c.opts)
			l.must(c.name, err)
		}))
	}

	pair, err := coResidentPair(cluster.MustNew(testbed(1)))
	if !l.must("deploy pair", err) {
		return
	}
	a, b := pair.Placements[0].Env, pair.Placements[1].Env
	n := l.n(20000)
	l.set("shmem.create_attach_ns", 1e9/float64(n)*seconds(func() {
		reg := shmem.NewRegistry()
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("seg%d", i)
			if _, err := reg.CreateOrAttach(a, name, 4096); err != nil {
				panic(err)
			}
			if _, err := reg.Attach(b, name); err != nil {
				panic(err)
			}
		}
	}))

	n = l.n(2000000)
	tun := core.DefaultTunables()
	local := core.PeerCapabilities{SameHost: true, SharedIPC: true, SharedPID: true, DetectedLocal: true}
	sink := 0
	l.set("core.select_path_ns", 1e9/float64(n)*seconds(func() {
		for i := 0; i < n; i++ {
			sink += int(core.SelectPath(core.ModeLocalityAware, tun, local, i&0xffff))
		}
	}))
	l.set("core.bufpool_getput_ns", 1e9/float64(n)*seconds(func() {
		var pool core.BufPool
		for i := 0; i < n; i++ {
			pool.Put(pool.Get(4096))
		}
	}))
	_ = sink
}

// --- cma --------------------------------------------------------------------

func (l *layers) cmaDrivers() {
	pair, err := coResidentPair(cluster.MustNew(testbed(1)))
	if !l.must("deploy pair", err) {
		return
	}
	a, b := pair.Placements[0].Env, pair.Placements[1].Env
	read := func(size, n int) float64 {
		src, dst := make([]byte, size), make([]byte, size)
		return seconds(func() {
			for i := 0; i < n; i++ {
				if _, err := cma.Readv(a, b, dst, src); err != nil {
					panic(err) // the pair shares a PID namespace
				}
			}
		})
	}
	n := l.n(200000)
	l.set("cma.readv_ns_4k", read(4<<10, n)*1e9/float64(n))
	n = l.n(400)
	l.set("cma.readv_gbps_1m", float64(n)*float64(1<<20)/read(1<<20, n)/1e9)
}

// --- ib ---------------------------------------------------------------------

// ibPair is a connected loopback queue pair between two co-resident
// privileged containers, each side with its own completion queue.
type ibPair struct {
	eng        *sim.Engine
	devA, devB *ib.Device
	qa, qb     *ib.QP
	cqa, cqb   *ib.CQ
}

func newIBPair(prm *perf.Params) (*ibPair, error) {
	d, err := coResidentPair(cluster.MustNew(testbed(1)))
	if err != nil {
		return nil, err
	}
	x := &ibPair{eng: sim.NewEngine()}
	f := ib.NewFabric(x.eng, prm, d.Cluster)
	if x.devA, err = f.OpenDevice(d.Placements[0].Env); err != nil {
		return nil, err
	}
	if x.devB, err = f.OpenDevice(d.Placements[1].Env); err != nil {
		return nil, err
	}
	x.cqa, x.cqb = x.devA.CreateCQ(), x.devB.CreateCQ()
	x.qa, x.qb = x.devA.CreateQP(x.cqa, x.cqa), x.devB.CreateQP(x.cqb, x.cqb)
	return x, ib.Connect(x.qa, x.qb)
}

// awaitCQE parks p until cq delivers a completion of the wanted opcode.
func awaitCQE(p *sim.Proc, cq *ib.CQ, want ib.Opcode) {
	for {
		for _, e := range cq.Poll(p) {
			if e.Op == want {
				return
			}
		}
		p.Park()
	}
}

func (l *layers) ibDrivers() {
	prm := perf.Default()

	// n loopback SENDs of 64 B, each polled to completion on both sides.
	n := l.n(20000)
	var allocs float64
	send := seconds(func() {
		x, err := newIBPair(&prm)
		if !l.must("ib pair", err) {
			return
		}
		x.eng.Go("recv", func(p *sim.Proc) {
			x.cqb.SetWaiter(p)
			buf := make([]byte, 64)
			for i := 0; i < n; i++ {
				x.qb.PostRecv(p, uint64(i), buf)
				awaitCQE(p, x.cqb, ib.OpRecv)
			}
		})
		x.eng.Go("send", func(p *sim.Proc) {
			x.cqa.SetWaiter(p)
			payload := make([]byte, 64)
			for i := 0; i < n; i++ {
				x.qa.PostSend(p, uint64(i), payload, 0)
				awaitCQE(p, x.cqa, ib.OpSend)
			}
		})
		allocs = mallocs(func() { l.must("ib send", x.eng.Run()) })
	})
	l.set("ib.send_ns_per_msg", send*1e9/float64(n))
	l.set("ib.send_allocs_per_msg", allocs/float64(n))

	// One-sided: n RDMA operations of one size against a registered region.
	oneSided := func(size, n int, write bool) float64 {
		return seconds(func() {
			x, err := newIBPair(&prm)
			if !l.must("ib pair", err) {
				return
			}
			x.eng.Go("origin", func(p *sim.Proc) {
				x.cqa.SetWaiter(p)
				mr := x.devB.RegisterMR(p, make([]byte, size))
				local := make([]byte, size)
				for i := 0; i < n; i++ {
					if write {
						x.qa.PostWrite(p, uint64(i), local, mr, 0, false, 0)
						awaitCQE(p, x.cqa, ib.OpWrite)
					} else {
						x.qa.PostRead(p, uint64(i), local, mr, 0)
						awaitCQE(p, x.cqa, ib.OpRead)
					}
				}
			})
			l.must("ib one-sided", x.eng.Run())
		})
	}
	n = l.n(200)
	l.set("ib.write_gbps_1m", float64(n)*float64(1<<20)/oneSided(1<<20, n, true)/1e9)
	n = l.n(4000)
	l.set("ib.read_ns_64k", oneSided(64<<10, n, false)*1e9/float64(n))

	// Raw fabric bookings across the 64-host fat tree of scale-1024.
	n = l.n(400000)
	c := cluster.MustNew(testbed(64))
	l.set("ib.transit_ns_fattree", 1e9/float64(n)*seconds(func() {
		f := ib.NewFabric(sim.NewEngine(), &prm, c)
		if !l.must("fat tree", f.SetTopology(scaleTopo)) {
			return
		}
		for i := 0; i < n; i++ {
			f.Transit(i%64, (i*7+13)%64, 4096, sim.Time(i)*sim.Microsecond)
		}
	}))
}

// --- mpi, per channel -------------------------------------------------------

// pairRun builds a 2-rank world on the co-resident pair and returns the host
// seconds and heap objects of running body on it (median of three worlds).
// Buffers live in the body and are reused, so the driver itself allocates
// nothing per message.
func (l *layers) pairRun(opts mpi.Options, body func(r *mpi.Rank) error) (secs, allocs float64) {
	secs = seconds(func() {
		if w := l.world(1, coResidentPair, opts); w != nil {
			allocs = mallocs(func() { l.must("pair run", w.Run(body)) })
		}
	})
	return secs, allocs
}

func pingPong(size, n int) func(r *mpi.Rank) error {
	return func(r *mpi.Rank) error {
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			if r.Rank() == 0 {
				r.Send(1, 0, buf)
				r.Recv(1, 1, buf)
			} else {
				r.Recv(0, 0, buf)
				r.Send(0, 1, buf)
			}
		}
		return nil
	}
}

func (l *layers) channelDrivers() {
	// Locality-aware routes the co-resident pair over SHM and CMA; the stock
	// library routes the same pair over the HCA loopback.
	for _, ch := range []struct {
		eager, rndv string
		opts        mpi.Options
	}{{"mpi.shm_eager", "mpi.cma_rndv", mpi.DefaultOptions()}, {"mpi.hca_eager", "mpi.hca_rndv", mpi.StockOptions()}} {
		n := l.n(20000)
		s, a := l.pairRun(ch.opts, pingPong(512, n))
		l.set(ch.eager+"_ns_per_msg", s*1e9/float64(2*n))
		l.set(ch.eager+"_allocs_per_msg", a/float64(2*n))
		n = l.n(2000)
		s, a = l.pairRun(ch.opts, pingPong(64<<10, n))
		l.set(ch.rndv+"_ns_per_msg", s*1e9/float64(2*n))
		l.set(ch.rndv+"_allocs_per_msg", a/float64(2*n))
		n = l.n(200)
		s, _ = l.pairRun(ch.opts, pingPong(1<<20, n))
		l.set(ch.rndv+"_host_gbps", float64(2*n)*float64(1<<20)/s/1e9)
	}

	n := l.n(20000)
	s, _ := l.pairRun(mpi.DefaultOptions(), func(r *mpi.Rank) error {
		win := r.WinCreate(make([]byte, 512))
		defer win.Free()
		win.Fence()
		if r.Rank() == 0 {
			buf := make([]byte, 512)
			for i := 0; i < n; i++ {
				win.Put(1, 0, buf)
				win.Flush()
			}
		}
		win.Fence()
		return nil
	})
	l.set("mpi.rma_put_ns", s*1e9/float64(n))

	const window = 64
	n = l.n(300)
	s, _ = l.pairRun(mpi.DefaultOptions(), func(r *mpi.Rank) error {
		buf, ack := make([]byte, 512), make([]byte, 4)
		reqs := make([]*mpi.Request, window)
		for i := 0; i < n; i++ {
			if r.Rank() == 0 {
				for k := range reqs {
					reqs[k] = r.Isend(1, 0, buf)
				}
				r.WaitAll(reqs...)
				r.Recv(1, 1, ack)
			} else {
				for k := range reqs {
					reqs[k] = r.Irecv(0, 0, buf)
				}
				r.WaitAll(reqs...)
				r.Send(0, 1, ack)
			}
		}
		return nil
	})
	l.set("mpi.isend_window_ns_per_msg", s*1e9/float64(n*window))

	// A receive matched at the tail of a 256-deep unexpected queue: rank 0
	// sends tags 0..256, the barrier lets rank 1's progress engine queue
	// them all, and the timed receive asks for the last one.
	const depth = 256
	rounds := l.n(200)
	tail := make([]float64, 0, rounds)
	l.pairRun(mpi.DefaultOptions(), func(r *mpi.Rank) error {
		buf := make([]byte, 64)
		for round := 0; round < rounds; round++ {
			if r.Rank() == 0 {
				for tag := 0; tag <= depth; tag++ {
					r.Send(1, tag, buf)
				}
				r.Barrier()
			} else {
				r.Barrier()
				t0 := time.Now()
				r.Recv(0, depth, buf)
				tail = append(tail, float64(time.Since(t0).Nanoseconds()))
				for tag := 0; tag < depth; tag++ {
					r.Recv(0, tag, buf)
				}
			}
			r.Barrier()
		}
		return nil
	})
	// pairRun ran the body three times; the median over all timed receives.
	sort.Float64s(tail)
	l.set("mpi.match_ns_depth256", median(tail))
}

// --- mpi collectives at 64 ranks --------------------------------------------

// coll64 runs body on a fresh 64-rank world (the coll-64 deployment) and
// returns host seconds of the whole job, construction excluded.
func (l *layers) coll64(opts mpi.Options, run func(w *mpi.World) error) float64 {
	w := l.world(4, containers(2, 64), opts)
	if w == nil {
		return 0
	}
	t0 := time.Now()
	l.must("run 64", run(w))
	return time.Since(t0).Seconds()
}

// perCall is the host seconds per call of one collective at 64 ranks: rank 0
// reads the host clock after a warm-up call and a barrier, and again after
// iters calls and a barrier. Ranks run one at a time on one engine, so the
// interval covers every rank's share of the calls and nothing of MPI_Init.
func (l *layers) perCall(opts mpi.Options, iters int, call func(r *mpi.Rank)) float64 {
	var secs float64
	l.coll64(opts, func(w *mpi.World) error {
		return w.Run(func(r *mpi.Rank) error {
			call(r)
			r.Barrier()
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				call(r)
			}
			r.Barrier()
			if r.Rank() == 0 {
				secs = time.Since(t0).Seconds()
			}
			return nil
		})
	})
	return secs / float64(iters)
}

func (l *layers) collectiveDrivers() {
	forced := func(a core.AllreduceAlgo) mpi.Options {
		opts := mpi.DefaultOptions()
		opts.Tunables.AllreduceAlgo = a
		return opts
	}
	allreduce := func(size int) func(r *mpi.Rank) {
		return func(r *mpi.Rank) { r.Allreduce(make([]byte, size), mpi.SumInt64) }
	}
	l.set("mpi.allreduce64_rd_us", 1e6*l.perCall(forced(core.AllreduceRecursiveDoubling), l.n(20), allreduce(1<<10)))
	l.set("mpi.allreduce64_tree_us", 1e6*l.perCall(forced(core.AllreduceTree), l.n(20), allreduce(1<<10)))
	l.set("mpi.allreduce64_rab_ms", 1e3*l.perCall(forced(core.AllreduceRabenseifner), l.n(2), allreduce(1<<20)))
	l.set("mpi.allreduce64_ring_ms", 1e3*l.perCall(forced(core.AllreduceRing), l.n(2), allreduce(1<<20)))

	const sz = 16 << 10
	def := mpi.DefaultOptions()
	l.set("mpi.bcast64_us", 1e6*l.perCall(def, l.n(20), func(r *mpi.Rank) { r.Bcast(0, make([]byte, sz)) }))
	l.set("mpi.allgather64_ms", 1e3*l.perCall(def, l.n(4), func(r *mpi.Rank) {
		r.Allgather(make([]byte, sz), make([]byte, sz*r.Size()))
	}))
	l.set("mpi.alltoall64_ms", 1e3*l.perCall(def, l.n(2), func(r *mpi.Rank) {
		r.Alltoall(make([]byte, sz*r.Size()), make([]byte, sz*r.Size()), sz)
	}))
	l.set("mpi.barrier64_us", 1e6*l.perCall(def, l.n(50), func(r *mpi.Rank) { r.Barrier() }))

	// The same self-checked allreduce as a blocking body and as a machine
	// program on the same world geometry: whole job over iterations, so both
	// carry the same MPI_Init.
	iters := l.n(20)
	l.set("mpi.blocking_allreduce64_us", 1e6/float64(iters)*l.coll64(def, func(w *mpi.World) error {
		return w.Run(mpi.AllreduceWorkload(iters, 1<<10))
	}))
	l.set("mpi.machine_allreduce64_us", 1e6/float64(iters)*l.coll64(def, func(w *mpi.World) error {
		return w.RunMachine(mpi.AllreduceProgram(iters, 1<<10))
	}))
	l.set("mpi.runscale_4096_ms", 1e3*seconds(func() {
		_, err := mpi.RunScale(mpi.ScaleOptions{Ranks: 4096, RanksPerHost: 32, Bytes: 1 << 20, Topology: scaleTopo})
		l.must("RunScale", err)
	}))
}

// --- workload layers --------------------------------------------------------

func (l *layers) workloadDrivers() {
	pairWorld := func() *mpi.World { return l.world(1, coResidentPair, mpi.DefaultOptions()) }
	// What osu's window loop allocates per payload byte it moves: the
	// per-message receive buffers, not any channel.
	cfg := osu.Config{Iters: l.n(10), Warmup: 1, Window: 16}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if w := pairWorld(); w != nil {
		_, err := osu.Bandwidth(w, []int{64 << 10}, cfg)
		l.must("osu.Bandwidth", err)
	}
	runtime.ReadMemStats(&m1)
	l.set("osu.bw_alloc_bytes_per_payload_byte", float64(m1.TotalAlloc-m0.TotalAlloc)/float64((64<<10)*cfg.Window*(cfg.Iters+cfg.Warmup)))

	iters := l.n(20000)
	l.set("osu.latency_host_ns_per_iter_8b", 1e9/float64(iters)*seconds(func() {
		if w := pairWorld(); w != nil {
			_, err := osu.Latency(w, []int{8}, osu.Config{Iters: iters})
			l.must("osu.Latency", err)
		}
	}))

	// The applications at the apps-32 geometry, default options, one shot
	// each (they are too long to repeat inside the traced pass).
	app := func(what string, run func(w *mpi.World) error) float64 {
		w := l.world(4, containers(4, 32), mpi.DefaultOptions())
		if w == nil {
			return 0
		}
		defer l.tr.begin(what)()
		t0 := time.Now()
		l.must(what, run(w))
		return time.Since(t0).Seconds()
	}
	gp := graph500.DefaultParams(14)
	if l.div > 1 {
		gp.Scale, gp.Roots = 10, 1
	}
	l.set("graph500.host_s_scale14", app("graph500.Run", func(w *mpi.World) error {
		res, err := graph500.Run(w, gp)
		if err != nil {
			return err
		}
		return errIf(!res.Validated, "not validated")
	}))
	for _, k := range []struct {
		metric string
		run    npb.Kernel
	}{{"npb.cg_host_ms", npb.RunCG}, {"npb.ep_host_ms", npb.RunEP}, {"npb.ft_host_ms", npb.RunFT}, {"npb.is_host_ms", npb.RunIS}, {"npb.mg_host_ms", npb.RunMG}} {
		l.set(k.metric, 1e3*app(k.metric, func(w *mpi.World) error {
			res, err := k.run(w, npb.ClassS)
			if err != nil {
				return err
			}
			return errIf(!res.Verified, "not verified")
		}))
	}
	mc := mltrain.DefaultConfig(8<<10, 64<<10, 256<<10)
	l.set("mltrain.dp_step_host_ms", 1e3/float64(mc.Steps+mc.Warmup)*app("mltrain.DataParallel", func(w *mpi.World) error {
		_, err := mltrain.DataParallel(w, mc)
		return err
	}))

	// Two figures of the Quick table stand in for the whole table (45 s, too
	// long to repeat), and Fig. 7a again with one sweep worker.
	if l.div > 1 {
		// -smoke: the figures have no smaller size, so they are skipped and
		// read 0.
		l.set("experiments.fig7a_s", 0)
		l.set("experiments.fig10_s", 0)
		l.set("experiments.sweep_speedup", 0)
		return
	}
	fig := func(name string, run func(experiments.Scale) (*experiments.Table, error)) float64 {
		defer l.tr.begin(name)()
		t0 := time.Now()
		_, err := run(experiments.Quick)
		l.must(name, err)
		return time.Since(t0).Seconds()
	}
	experiments.SetWorkers(runtime.NumCPU())
	wide := fig("experiments.Figure7a", experiments.Figure7a)
	l.set("experiments.fig7a_s", wide)
	l.set("experiments.fig10_s", fig("experiments.Figure10", experiments.Figure10))
	experiments.SetWorkers(1)
	l.set("experiments.sweep_speedup", fig("experiments.Figure7a.workers1", experiments.Figure7a)/wide)
	experiments.SetWorkers(0)
}

// --- trace, fault, recover, profile -----------------------------------------

func (l *layers) observerDrivers() {
	rounds := max(l.n(10), 4) // at least one checkpoint before the crash
	// job16 is the faults-16 job without faults; tweak arms one observer.
	job16 := func(tweak func(o *mpi.Options)) float64 {
		opts := mpi.DefaultOptions()
		if tweak != nil {
			tweak(&opts)
		}
		w := l.world(2, containers(2, 16), opts)
		if w == nil {
			return 0
		}
		t0 := time.Now()
		l.must("run 16", w.Run(allreduceRounds(rounds, newRankChecks(16))))
		return time.Since(t0).Seconds()
	}
	l.set("trace.record_overhead_pct", overheadPct(func(on bool) float64 {
		if !on {
			return job16(nil)
		}
		return job16(func(o *mpi.Options) { o.Record = trace.NewRecorder(nil) })
	}))
	// An empty plan arms the injector and the classic loop; nothing fires.
	l.set("fault.plan_overhead_pct", overheadPct(func(on bool) float64 {
		if !on {
			return job16(nil)
		}
		return job16(func(o *mpi.Options) { o.FaultPlan = fault.NewPlan() })
	}))
	// The 64-rank allreduce sweep with the mpiP-style profiler off and on.
	l.set("profile.overhead_pct", overheadPct(func(on bool) float64 {
		opts := mpi.DefaultOptions()
		opts.Profile = on
		return l.coll64(opts, func(w *mpi.World) error {
			_, err := osu.Collective(w, osu.Allreduce, collSizes, osu.Config{Iters: l.n(10), Warmup: 1})
			return err
		})
	}))

	// Decode and replay the golden trace.
	var golden bytes.Buffer
	if l.must("GoldenTrace", experiments.GoldenTrace(&golden)) {
		var tr *trace.Trace
		read := seconds(func() {
			var err error
			tr, err = trace.Read(bytes.NewReader(golden.Bytes()))
			l.must("trace.Read", err)
		})
		l.set("trace.read_mb_per_s", float64(golden.Len())/1e6/read)
		l.set("trace.replay_ms", 1e3*seconds(func() { trace.Replay(tr) }))
	}

	// A 16-rank job that loses a rank halfway and respawns from its latest
	// checkpoint: host time of the whole recovery, and the snapshot's size.
	clean := mpi.DefaultOptions()
	clean.FaultPlan = fault.NewPlan()
	w := l.world(2, containers(2, 16), clean)
	if w == nil || !l.must("clean run", w.Run(allreduceRounds(rounds, newRankChecks(16)))) {
		return
	}
	crash := mpi.DefaultOptions()
	crash.FaultPlan = fault.NewPlan().RankCrash(9, w.MaxBodyTime()/2)
	if w = l.world(2, containers(2, 16), crash); w == nil {
		return
	}
	store := rec.NewStore()
	t0 := time.Now()
	rep, err := w.RunRecoverable(mpi.RecoverOptions{Policy: rec.PolicyRespawn, MaxRestarts: 2, Store: store}, allreduceRounds(rounds, newRankChecks(16)))
	l.set("recover.restart_host_ms", 1e3*time.Since(t0).Seconds())
	if l.must("RunRecoverable", err) {
		l.must("RunRecoverable", errIf(!rep.Recovered, "no recovery happened"))
	}
	if snap := store.Latest(); l.must("snapshot", errIf(snap == nil, "no checkpoint was committed")) {
		l.set("recover.snapshot_bytes", float64(len(snap.Encode())))
	}
}

// --- perf model anchors -----------------------------------------------------

// modelAnchors reads the virtual numbers the cost model is validated on, on
// the intra-socket pair of Figs. 8 and 9, beside the paper's values.
func (l *layers) modelAnchors() {
	cfg := osu.Config{Iters: 40, Warmup: 5, Window: 32} // the Quick table's counts
	at := func(native bool, opts mpi.Options, bench func(*mpi.World, []int, osu.Config) (osu.Series, error), size int) float64 {
		deploy := deployFn(coResidentPair)
		if native {
			deploy = func(c *cluster.Cluster) (*cluster.Deployment, error) { return cluster.NativePair(c, true) }
		}
		w := l.world(1, deploy, opts)
		if w == nil {
			return 0
		}
		s, err := bench(w, []int{size}, cfg)
		if !l.must("anchor", err) {
			return 0
		}
		v, _ := s.At(size)
		return v
	}
	def, opt := mpi.StockOptions(), mpi.DefaultOptions()
	anchors := []struct {
		name       string
		paper, got float64
	}{
		{"model.lat1k_def_us", 2.26, at(false, def, osu.Latency, 1<<10)},
		{"model.lat1k_opt_us", 0.47, at(false, opt, osu.Latency, 1<<10)},
		{"model.lat1k_native_us", 0.44, at(true, def, osu.Latency, 1<<10)},
		{"model.putbw4_opt_over_def", 9.4, at(false, opt, osu.PutBandwidth, 4) / at(false, def, osu.PutBandwidth, 4)},
	}
	errSum := 0.0
	for _, a := range anchors {
		l.set(a.name, a.got)
		errSum += math.Abs(a.got-a.paper) / a.paper * 100
	}
	l.set("model.err_pct_mean", errSum/float64(len(anchors)))
	// No paper value is quoted for this cell; it anchors the large half.
	l.set("model.bw64k_opt_over_def", at(false, opt, osu.Bandwidth, 64<<10)/at(false, def, osu.Bandwidth, 64<<10))
}
