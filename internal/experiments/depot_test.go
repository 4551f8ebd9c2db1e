package experiments

import (
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/invariant"
	"cmpi/internal/mpi"
	"cmpi/internal/osu"
)

// The process-wide buffer depot (core/pool.go) is the one thing worlds of a
// process share. These two tests put worlds on it side by side — sweep
// points on four workers, epoch groups of one world at width four — and want
// the results of a lone sequential world. Under -race they are also the
// check that the depot's mutex covers everything the worlds share.

// depotPoint runs a 32-rank allreduce sweep on two hosts and returns its
// world's digest and how many buffers the depot served it.
func depotPoint() (string, uint64, error) {
	d, err := cluster.Containers(cluster.MustNew(testbedSpec(2)), 2, 32, cluster.PaperScenarioOpts())
	if err != nil {
		return "", 0, err
	}
	w, err := mpi.NewWorld(d, mpi.DefaultOptions())
	if err != nil {
		return "", 0, err
	}
	if _, err := osu.Collective(w, osu.Allreduce, []int{64, 4 << 10, 64 << 10}, osu.Config{Iters: 2, Warmup: 1}); err != nil {
		return "", 0, err
	}
	return w.Digest(), w.SimStats().BufPool.Depot, nil
}

// TestDepotSharedBySweepWorkers: eight sweep points on four workers, then on
// one, give the same worlds, and the depot serves them.
func TestDepotSharedBySweepWorkers(t *testing.T) {
	var served uint64
	invariant.Check(t, func(t *testing.T, p invariant.Point) invariant.Result {
		type point struct {
			digest string
			depot  uint64
		}
		out, err := mapPoints(8, func(int) (point, error) {
			digest, depot, err := depotPoint()
			return point{digest, depot}, err
		})
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		var digests []string
		for _, pt := range out {
			digests, served = append(digests, pt.digest), served+pt.depot
		}
		return invariant.Result{Digest: invariant.Sum(digests)}
	}, invariant.Point{}, invariant.Point{Sweep: 1})
	if served == 0 {
		t.Error("sixteen identical worlds took nothing from the depot")
	}
}

// TestDepotSharedByDispatchWidth: epoch groups of one world at width four
// share the depot with the world before, and simulate what width one does.
func TestDepotSharedByDispatchWidth(t *testing.T) {
	var served uint64
	invariant.Check(t, func(t *testing.T, p invariant.Point) invariant.Result {
		digest, depot, err := depotPoint()
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		served = depot
		return invariant.Result{Digest: digest}
	}, invariant.Point{}, invariant.Point{Width: 4})
	if served == 0 {
		t.Error("the second world took nothing from the depot")
	}
}
