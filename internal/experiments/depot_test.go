package experiments

import (
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/invariant"
	"cmpi/internal/mpi"
	"cmpi/internal/osu"
)

// The process-wide depot (core/pool.go), which keeps the free buffers and
// objects of finished worlds, is the one thing worlds of a process share.
// TestDepotSharedBySweepWorkers puts worlds on it side by side — sweep
// points on four workers — and wants the results of a lone sequential world.
// Under -race it is also the check that the depot's mutex covers everything
// the worlds share.

// depotServed is what the depot served one world: buffers and objects.
type depotServed struct{ bufs, objs uint64 }

// depotPoint runs a 32-rank allreduce sweep on two hosts and returns its
// world's digest and what the depot served it.
func depotPoint() (string, depotServed, error) {
	d, err := cluster.Containers(cluster.MustNew(testbedSpec(2)), 2, 32, cluster.PaperScenarioOpts())
	if err != nil {
		return "", depotServed{}, err
	}
	w, err := mpi.NewWorld(d, mpi.DefaultOptions())
	if err != nil {
		return "", depotServed{}, err
	}
	if _, err := osu.Collective(w, osu.Allreduce, []int{64, 4 << 10, 64 << 10}, osu.Config{Iters: 2, Warmup: 1}); err != nil {
		return "", depotServed{}, err
	}
	st := w.SimStats()
	return w.Digest(), depotServed{st.BufPool.Depot, st.ObjPool.Depot}, nil
}

// TestDepotSharedBySweepWorkers: eight sweep points on four workers, then on
// one, give the same worlds, and the depot serves them buffers and objects.
func TestDepotSharedBySweepWorkers(t *testing.T) {
	var served depotServed
	invariant.Check(t, func(t *testing.T, p invariant.Point) invariant.Result {
		type point struct {
			digest string
			depot  depotServed
		}
		defer SetWorkers(0)
		SetWorkers(p.Sweep)
		out, err := mapPoints(8, func(int) (point, error) {
			digest, depot, err := depotPoint()
			return point{digest, depot}, err
		})
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		var digests []string
		for _, pt := range out {
			digests = append(digests, pt.digest)
			served.bufs += pt.depot.bufs
			served.objs += pt.depot.objs
		}
		return invariant.Result{Digest: invariant.Sum(digests)}
	}, invariant.Point{}, invariant.Point{Sweep: 1})
	if served.bufs == 0 || served.objs == 0 {
		t.Errorf("sixteen identical worlds took %d buffers and %d objects from the depot, want some of each", served.bufs, served.objs)
	}
}
