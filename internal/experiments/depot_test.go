package experiments

import (
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/mpi"
	"cmpi/internal/osu"
	"cmpi/internal/sim"
)

// The process-wide buffer depot (core/pool.go) is the one thing worlds of a
// process share. These two tests put worlds on it side by side — sweep
// points on four workers, epoch groups of one world at width four — and want
// the results of a lone sequential world. Under -race they are also the
// check that the depot's mutex covers everything the worlds share.

// depotPoint runs a 32-rank allreduce sweep on two hosts and returns its
// latencies and how many buffers the depot served.
func depotPoint(simWorkers int) ([]float64, uint64, error) {
	d, err := cluster.Containers(cluster.MustNew(testbedSpec(2)), 2, 32, cluster.PaperScenarioOpts())
	if err != nil {
		return nil, 0, err
	}
	w, err := mpi.NewWorld(d, mpi.DefaultOptions())
	if err != nil {
		return nil, 0, err
	}
	w.Eng.SetWorkers(simWorkers)
	s, err := osu.Collective(w, osu.Allreduce, []int{64, 4 << 10, 64 << 10}, osu.Config{Iters: 2, Warmup: 1})
	if err != nil {
		return nil, 0, err
	}
	var vals []float64
	for _, r := range s {
		vals = append(vals, r.Value)
	}
	return append(vals, float64(w.MaxBodyTime()/sim.Nanosecond)), w.SimStats().BufPool.Depot, nil
}

func TestDepotSharedBySweepWorkers(t *testing.T) {
	defer SetWorkers(0)
	type point struct {
		vals  []float64
		depot uint64
	}
	sweep := func(workers int) []point {
		SetWorkers(workers)
		out, err := mapPoints(8, func(int) (point, error) {
			vals, depot, err := depotPoint(1)
			return point{vals, depot}, err
		})
		if err != nil {
			t.Fatalf("-j %d: %v", workers, err)
		}
		return out
	}
	want := sweep(1)
	var served uint64
	for i, got := range sweep(4) {
		served += got.depot
		if !equalFloats(got.vals, want[i].vals) {
			t.Errorf("point %d at -j 4: %v, at -j 1: %v", i, got.vals, want[i].vals)
		}
	}
	if served == 0 {
		t.Error("eight worlds after eight identical ones took nothing from the depot")
	}
}

func TestDepotSharedByDispatchWidth(t *testing.T) {
	want, _, err := depotPoint(1)
	if err != nil {
		t.Fatal(err)
	}
	got, served, err := depotPoint(4)
	if err != nil {
		t.Fatal(err)
	}
	if !equalFloats(got, want) {
		t.Errorf("-sim-j 4: %v, -sim-j 1: %v", got, want)
	}
	if served == 0 {
		t.Error("the second world took nothing from the depot")
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
