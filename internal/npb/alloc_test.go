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

// Every kernel sends from AllocMem and takes its arrays (AllocMemOf),
// generators (NewRand) and block lists (NewBlocks) from the rank or the
// process, and its rank bodies run on the coroutines of the last world's, so
// a repeat allocates the engine and the library's per-world state, not the
// kernel's state again: about 5 KB on 8 ranks for each of CG, EP, FT, IS and
// MG (9 KB while every body started a new coroutine), where making the
// arrays and sources anew took 0.487, 0.051, 0.551, 0.348 and 0.620 MB.
func TestSecondWorldAllocation(t *testing.T) {
	kernels := Kernels()
	for _, name := range []string{"CG", "EP", "FT", "IS", "MG"} {
		t.Run(name, func(t *testing.T) {
			got := secondWorld(t, func() *mpi.World { return npbWorld(t, 1, 2, 8, core.ModeLocalityAware) },
				func(w *mpi.World) error { _, err := kernels[name](w, ClassS); return err })
			if got > 16<<10 {
				t.Errorf("second %s.S world allocated %.3f MB, want under 16 KiB", name, float64(got)/(1<<20))
			}
		})
	}
}

// The 8-rank gate above cannot see what grows with the rank count: block and
// request lists, peer indexes. On the shape of bench's apps-32 (32 ranks,
// four containers on each of four hosts) a repeat of CG or IS allocated
// about 0.25 MB while ExchangeV made its lists on every call and each peer
// index regrew through new arrays, and 44 to 52 KB while every rank body
// started a new coroutine; it allocates 28 to 37 KB now.
func TestSecondWorldAllocationAt32Ranks(t *testing.T) {
	kernels := Kernels()
	for _, name := range []string{"CG", "IS"} {
		t.Run(name, func(t *testing.T) {
			got := secondWorld(t, func() *mpi.World { return npbWorld(t, 4, 4, 32, core.ModeLocalityAware) },
				func(w *mpi.World) error { _, err := kernels[name](w, ClassS); return err })
			if got > 48<<10 {
				t.Errorf("second %s.S world on 32 ranks allocated %.3f MB, want under 48 KiB", name, float64(got)/(1<<20))
			}
		})
	}
}
