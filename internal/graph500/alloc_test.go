package graph500

import (
	"runtime"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/mpi"
)

// secondWorld runs the same job in two fresh worlds, one after the other, and
// returns what the second allocated (runtime.MemStats.TotalAlloc): the first
// leaves its memory in the process-wide depot, unless the depot is full, in
// which case it keeps what earlier tests left and refuses the newcomer.
func secondWorld(t *testing.T, world func() *mpi.World, job func(*mpi.World) error) uint64 {
	t.Helper()
	if err := job(world()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := job(world()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The edge exchange and the BFS batches are AllocMem's, the graph's arrays
// AllocMemOf's, the generators NewRand's and the block and request lists
// NewBlocks' and NewRequests', and its rank bodies run on the coroutines of
// the last world's, so a repeat allocates the engine and the library's
// per-world state, not the run's: about 7 KB on 8 ranks at scale 10 (11 KB
// while every body started a new coroutine), where making the arrays and
// sources anew took 0.317 MB (and growing each batch by append, 2.9).
func TestSecondWorldAllocatesNoBatches(t *testing.T) {
	got := secondWorld(t, func() *mpi.World { return singleHostWorld(t, 2, 8, core.ModeLocalityAware) },
		func(w *mpi.World) error { _, err := Run(w, smallParams()); return err })
	if got > 16<<10 {
		t.Errorf("second Graph 500 world allocated %.3f MB, want under 16 KiB", float64(got)/(1<<20))
	}
}

// The gate above on the shape of bench's apps-32 (32 ranks, four containers
// on each of four hosts), where what grows with the rank count shows: block
// and request lists, peer indexes. A repeat at scale 10 allocated about
// 0.40 MB while the BFS made its lists once per run, ExchangeV on every call
// and each peer index regrew through new arrays, and 57 KB while every rank
// body started a new coroutine; it allocates about 44 KB now.
func TestSecondWorldAllocatesNoListsAt32Ranks(t *testing.T) {
	world := func() *mpi.World {
		c := cluster.MustNew(cluster.Spec{Hosts: 4, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
		d, err := cluster.Containers(c, 4, 32, cluster.PaperScenarioOpts())
		if err != nil {
			t.Fatal(err)
		}
		w, err := mpi.NewWorld(d, mpi.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	got := secondWorld(t, world, func(w *mpi.World) error { _, err := Run(w, smallParams()); return err })
	if got > 56<<10 {
		t.Errorf("second Graph 500 world on 32 ranks allocated %.3f MB, want under 56 KiB", float64(got)/(1<<20))
	}
}
