package mpi

import (
	"testing"

	"cmpi/internal/ib"
	"cmpi/internal/sim"
)

var scaleTestTopo = ib.Topology{RackSize: 4, SpineStages: 2, SpinesPerStage: 4, HopLatency: 150 * sim.Nanosecond}

func runScale(t *testing.T, o ScaleOptions) *ScaleResult {
	t.Helper()
	res, err := RunScale(o)
	if err != nil {
		t.Fatalf("RunScale: %v", err)
	}
	return res
}

// TestScaleRejectsNonPositiveRanks: a world needs at least one rank.
func TestScaleRejectsNonPositiveRanks(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := RunScale(ScaleOptions{Ranks: n}); err == nil {
			t.Fatalf("Ranks=%d must be rejected", n)
		}
	}
}

// TestScaleSingletons: degenerate layouts finish, at the time the
// hierarchical algorithm took on them before it became the only one. One
// rank; one host (the host level alone); one rank per host on a crossbar and
// on a fat tree (the host level empty).
func TestScaleSingletons(t *testing.T) {
	for _, tc := range []struct {
		o    ScaleOptions
		want sim.Time
	}{
		{ScaleOptions{Ranks: 1, RanksPerHost: 1}, 0},
		{ScaleOptions{Ranks: 8, RanksPerHost: 8}, 954670910},
		{ScaleOptions{Ranks: 64, RanksPerHost: 64}, 6301276006},
		{ScaleOptions{Ranks: 48, RanksPerHost: 48}, 4773674550},
		{ScaleOptions{Ranks: 16, RanksPerHost: 1}, 6776801446},
		{ScaleOptions{Ranks: 37, RanksPerHost: 1, Topology: scaleTestTopo}, 4275820475},
	} {
		if res := runScale(t, tc.o); res.Time != tc.want {
			t.Errorf("%d ranks, %d per host: time %d ps, want %d", tc.o.Ranks, tc.o.RanksPerHost, int64(res.Time), int64(tc.want))
		}
	}
}

// TestScaleTimesPinned pins, to the picosecond, the completion time of every
// configuration a caller runs: the ext-scale table's 256, 1024 and 4096 ranks
// (the last is also `repro -ranks 4096`) and the benchmark's 4096-rank,
// four-iteration world, all at 32 ranks per host and 1 MiB on ext-scale's fat
// tree.
func TestScaleTimesPinned(t *testing.T) {
	fatTree := ib.Topology{RackSize: 8, SpineStages: 2, SpinesPerStage: 4, HopLatency: 150 * sim.Nanosecond}
	for _, tc := range []struct {
		ranks, iters, hosts, racks int
		want                       sim.Time
	}{
		{256, 1, 8, 1, 6461100484},
		{1024, 1, 32, 4, 7515682476},
		{4096, 1, 128, 16, 11783250324},
		{4096, 4, 128, 16, 43485631317},
	} {
		res := runScale(t, ScaleOptions{Ranks: tc.ranks, RanksPerHost: 32, Bytes: 1 << 20, Iters: tc.iters, Topology: fatTree})
		if res.Time != tc.want || res.Hosts != tc.hosts || res.Racks != tc.racks {
			t.Errorf("%d ranks x %d iters: time %d ps on %d hosts / %d racks, want %d ps on %d / %d",
				tc.ranks, tc.iters, int64(res.Time), res.Hosts, res.Racks, int64(tc.want), tc.hosts, tc.racks)
		}
	}
}
