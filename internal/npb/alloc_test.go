package npb

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

// The key and matrix exchanges send from AllocMem and size what they build
// from once, so a repeat of IS or CG allocates the kernel's own state, the
// engine and the library, not the exchanged bytes again: 0.47 and 0.58 MB on
// 8 ranks, where growing the sends (and CG's rows) by append took 2.2 and
// 2.3.
func TestSecondWorldAllocation(t *testing.T) {
	for _, tc := range []struct {
		kernel string
		run    Kernel
	}{{"IS", RunIS}, {"CG", RunCG}} {
		t.Run(tc.kernel, func(t *testing.T) {
			got := secondWorld(t, func() *mpi.World { return npbWorld(t, 1, 2, 8, core.ModeLocalityAware) },
				func(w *mpi.World) error { _, err := tc.run(w, ClassS); return err })
			if got > 1<<20 {
				t.Errorf("second %s.S world allocated %.2f MB, want under 1", tc.kernel, float64(got)/(1<<20))
			}
		})
	}
}
