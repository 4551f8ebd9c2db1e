package graph500

import (
	"runtime"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/mpi"
)

// secondWorld runs the same job in two fresh worlds, one after the other, and
// returns what the second allocated (runtime.MemStats.TotalAlloc): the first
// leaves its message memory in the process-wide depot, which evicts what
// earlier tests left to make room for it.
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

// The edge exchange and the BFS batches are AllocMem's, so a repeat of the
// run allocates the graph, the engine and the library, not its messages
// again: 0.45 MB on 8 ranks at scale 10, where growing each batch by append
// took 2.9.
func TestSecondWorldAllocatesNoBatches(t *testing.T) {
	got := secondWorld(t, func() *mpi.World { return singleHostWorld(t, 2, 8, core.ModeLocalityAware) },
		func(w *mpi.World) error { _, err := Run(w, smallParams()); return err })
	if got > 1<<20 {
		t.Errorf("second Graph 500 world allocated %.2f MB, want under 1", float64(got)/(1<<20))
	}
}
