package npb

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

// Every kernel sends from AllocMem and takes its arrays (AllocMemOf) and
// generators (NewRand) from the rank, so a repeat allocates the engine, the
// library's per-world state and a few slices of slices, not the kernel's
// state again: 0.023, 0.010, 0.009, 0.019 and 0.034 MB on 8 ranks for CG,
// EP, FT, IS and MG, where making the arrays and sources anew took 0.487,
// 0.051, 0.551, 0.348 and 0.620.
func TestSecondWorldAllocation(t *testing.T) {
	kernels := Kernels()
	for _, name := range []string{"CG", "EP", "FT", "IS", "MG"} {
		t.Run(name, func(t *testing.T) {
			got := secondWorld(t, func() *mpi.World { return npbWorld(t, 1, 2, 8, core.ModeLocalityAware) },
				func(w *mpi.World) error { _, err := kernels[name](w, ClassS); return err })
			if got > 64<<10 {
				t.Errorf("second %s.S world allocated %.3f MB, want under 64 KiB", name, float64(got)/(1<<20))
			}
		})
	}
}
