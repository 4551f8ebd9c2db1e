package experiments

import (
	"io"

	"cmpi/internal/cluster"
	"cmpi/internal/ib"
	"cmpi/internal/mpi"
	"cmpi/internal/sim"
	"cmpi/internal/trace"
)

// GoldenTrace runs the canonical trace-regression job — a fixed 16-rank
// mixed workload on a 2-host, 2-containers-per-host deployment — and streams
// its v1 trace to out. The job exercises every record kind a healthy run can
// produce: eager and rendezvous traffic on the SHM, CMA, and HCA channels,
// a self-delivery, collectives, and one-sided accesses.
//
// The trace is deterministic: the same library version writes byte-identical
// output at every sweep width, which is what makes
// it usable as a committed fixture (testdata/golden.trace) and as a CI
// regression gate. A diff against the fixture therefore means the message
// schedule itself changed — a behavior change to document (and a refreshed
// fixture), not noise.
func GoldenTrace(out io.Writer) error { return goldenJob(2, 16, ib.Topology{}, out) }

// GoldenTraceFatTree runs the frozen golden workload on a 4-host, 2-rack
// fat-tree deployment (32 ranks, two containers per host) and streams its v1
// trace to out. It is the non-trivial-topology companion fixture
// (testdata/golden-fattree.trace): spine hop latency shifts every cross-rack
// HCA record, so this fixture guards the topology cost model. Deterministic
// like GoldenTrace: byte-identical from run to run.
func GoldenTraceFatTree(out io.Writer) error {
	return goldenJob(4, 32, ib.Topology{RackSize: 2, SpineStages: 1, SpinesPerStage: 2, HopLatency: 150 * sim.Nanosecond}, out)
}

// goldenJob records goldenWorkload on ranks ranks over hosts hosts (two
// containers each) and topology topo.
func goldenJob(hosts, ranks int, topo ib.Topology, out io.Writer) error {
	d, err := cluster.Containers(cluster.MustNew(testbedSpec(hosts)), 2, ranks, cluster.PaperScenarioOpts())
	if err != nil {
		return err
	}
	opts := mpi.DefaultOptions()
	opts.Topology = topo
	opts.Record = trace.NewRecorder(out)
	w, err := mpi.NewWorld(d, opts)
	if err != nil {
		return err
	}
	if err := w.Run(goldenWorkload); err != nil {
		return err
	}
	return opts.Record.Err()
}

// goldenWorkload is the fixed job body behind GoldenTrace. Changing it
// invalidates testdata/golden.trace, so treat it as frozen: add a new golden
// job instead of growing this one.
func goldenWorkload(r *mpi.Rank) error {
	n := r.Size()
	me := r.Rank()

	// Eager ring exchange.
	r.Sendrecv((me+1)%n, 1, make([]byte, 64), (me-1+n)%n, 1, make([]byte, 64))

	// Rendezvous-sized shift with a wildcard receive.
	rq := r.Irecv(mpi.AnySource, 2, make([]byte, 256<<10))
	r.Send((me+2)%n, 2, make([]byte, 256<<10))
	r.Wait(rq)

	// Synchronous handshake between ring neighbours.
	if me%2 == 0 {
		r.Ssend((me+1)%n, 3, make([]byte, 128))
	} else {
		r.Recv((me-1+n)%n, 3, make([]byte, 128))
	}

	// Self delivery.
	sq := r.Irecv(me, 4, make([]byte, 32))
	r.Send(me, 4, make([]byte, 32))
	r.Wait(sq)

	r.Allreduce(mpi.EncodeInt64s(make([]int64, 16)), mpi.SumInt64)

	// One-sided traffic: small (SHM), large local (CMA), and cross-host (HCA).
	win := r.WinCreate(make([]byte, 1<<20))
	win.Put((me+1)%n, 0, make([]byte, 64))
	win.Put((me+3)%n, 0, make([]byte, 1<<18))
	win.Get((me+1)%n, 64, make([]byte, 64))
	win.Flush()
	win.Fence()
	win.Free()

	r.Barrier()
	return nil
}
