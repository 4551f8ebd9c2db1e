package graph500

import (
	"runtime"
	"testing"

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
// AllocMemOf's and the generators NewRand's, and the BFS sizes its lists
// once per run, so a repeat allocates the engine and the library's per-world
// state, not the run's: 0.027 MB on 8 ranks at scale 10, where making the
// arrays and sources anew took 0.317 (and growing each batch by append, 2.9).
func TestSecondWorldAllocatesNoBatches(t *testing.T) {
	got := secondWorld(t, func() *mpi.World { return singleHostWorld(t, 2, 8, core.ModeLocalityAware) },
		func(w *mpi.World) error { _, err := Run(w, smallParams()); return err })
	if got > 64<<10 {
		t.Errorf("second Graph 500 world allocated %.3f MB, want under 64 KiB", float64(got)/(1<<20))
	}
}
