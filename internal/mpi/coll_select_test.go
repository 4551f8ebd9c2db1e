package mpi

import (
	"fmt"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/profile"
)

// sumAllreduceBody verifies an Allreduce of nel float64s seeded per rank:
// rank i contributes i+1 in every slot, so each reduced slot must equal
// n(n+1)/2 on every rank.
func sumAllreduceBody(nel int) func(r *Rank) error {
	return func(r *Rank) error {
		vals := make([]float64, nel)
		for i := range vals {
			vals[i] = float64(r.Rank() + 1)
		}
		buf := EncodeFloat64s(vals)
		r.Allreduce(buf, SumFloat64)
		n := r.Size()
		want := float64(n*(n+1)) / 2
		for i, v := range DecodeFloat64s(buf) {
			if v != want {
				return fmt.Errorf("rank %d slot %d = %v, want %v", r.Rank(), i, v, want)
			}
		}
		return nil
	}
}

// TestAllreduceAlgoCorrectness checks every algorithm (and the selector)
// computes the right reduction on power-of-two, odd, and non-power-of-two
// worlds, including buffers with fewer elements than ranks and chunk sizes
// that do not divide evenly.
func TestAllreduceAlgoCorrectness(t *testing.T) {
	algos := []core.AllreduceAlgo{
		core.AllreduceAuto,
		core.AllreduceRecursiveDoubling,
		core.AllreduceRabenseifner,
		core.AllreduceRing,
		core.AllreduceTree,
	}
	// Containers require the rank count to divide evenly, so odd worlds run
	// in a single container.
	scenarioFor := func(n int) string {
		switch {
		case n%4 == 0:
			return "4cont"
		case n%2 == 0:
			return "2cont"
		default:
			return "1cont"
		}
	}
	for _, n := range []int{2, 3, 4, 5, 8, 12} {
		for _, nel := range []int{1, 3, 5, 128, 129, 8192} {
			for _, algo := range algos {
				t.Run(fmt.Sprintf("n%d/nel%d/%v", n, nel, algo), func(t *testing.T) {
					opts := DefaultOptions()
					opts.Mode = core.ModeLocalityAware
					opts.Tunables.AllreduceAlgo = algo
					w := testWorld(t, scenarioFor(n), n, opts)
					if err := w.Run(sumAllreduceBody(nel)); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// collProfile runs one profiled Allreduce of n bytes on the given world and
// returns the per-algorithm call counters summed over ranks.
func collProfile(t *testing.T, scenario string, ranks, bytes int, tweak func(*Options)) profile.CollAlgoStats {
	t.Helper()
	opts := DefaultOptions()
	opts.Profile = true
	if tweak != nil {
		tweak(&opts)
	}
	w := testWorld(t, scenario, ranks, opts)
	if err := w.Run(func(r *Rank) error {
		r.Allreduce(make([]byte, bytes), SumFloat64)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return w.Prof.TotalCollAlgos()
}

// expectAlgo asserts every rank ran algo for its single Allreduce call.
func expectAlgo(t *testing.T, got profile.CollAlgoStats, algo core.AllreduceAlgo, ranks int) {
	t.Helper()
	if got.Calls[algo] != uint64(ranks) {
		t.Errorf("want %d %v calls, got calls %v", ranks, algo, got.Calls)
	}
	if total := got.TotalCalls(); total != uint64(ranks) {
		t.Errorf("want %d total calls, got %d (%v)", ranks, total, got.Calls)
	}
}

// TestAutoSelectionPolicy pins the selection policy's boundaries: small
// buffers stay on recursive doubling; non-power-of-two worlds ride the
// ring; power-of-two co-resident worlds take Rabenseifner; power-of-two
// spread worlds take the ring; unaligned large buffers fall back to
// recursive doubling.
func TestAutoSelectionPolicy(t *testing.T) {
	small := DefaultOptions().Tunables.AllreduceLargeThreshold / 2
	large := 64 << 10
	cases := []struct {
		name     string
		scenario string
		ranks    int
		bytes    int
		want     core.AllreduceAlgo
	}{
		{"small-stays-rd", "4cont", 4, small, core.AllreduceRecursiveDoubling},
		{"unaligned-large-rd", "4cont", 4, large + 4, core.AllreduceRecursiveDoubling},
		{"nonpof2-ring", "2cont", 6, large, core.AllreduceRing},
		{"pof2-coresident-rab", "4cont", 4, large, core.AllreduceRabenseifner},
		{"pof2-spread-ring", "2host", 4, large, core.AllreduceRing},
		{"two-ranks-rd", "2cont", 2, large, core.AllreduceRecursiveDoubling},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := collProfile(t, tc.scenario, tc.ranks, tc.bytes, nil)
			expectAlgo(t, got, tc.want, tc.ranks)
		})
	}
}

// TestForcedAlgoFallbacks checks a forced algorithm whose alignment the
// buffer cannot meet degrades deterministically instead of crashing:
// Rabenseifner falls back to the ring (or recursive doubling when even
// 8-byte alignment is missing), the ring to recursive doubling.
func TestForcedAlgoFallbacks(t *testing.T) {
	force := func(a core.AllreduceAlgo) func(*Options) {
		return func(o *Options) { o.Tunables.AllreduceAlgo = a }
	}
	// 8 bytes on 4 ranks: 8 % (8*4) != 0, but 8 % 8 == 0 -> rab degrades to ring.
	got := collProfile(t, "4cont", 4, 8, force(core.AllreduceRabenseifner))
	expectAlgo(t, got, core.AllreduceRing, 4)
	// 4 bytes: not even element-aligned -> rab degrades to recursive doubling.
	got = collProfile(t, "4cont", 4, 4, force(core.AllreduceRabenseifner))
	expectAlgo(t, got, core.AllreduceRecursiveDoubling, 4)
	// Ring with an unaligned buffer degrades to recursive doubling.
	got = collProfile(t, "4cont", 4, 12, force(core.AllreduceRing))
	expectAlgo(t, got, core.AllreduceRecursiveDoubling, 4)
	// Ring on a 2-rank world degrades to recursive doubling.
	got = collProfile(t, "2cont", 2, 1024, force(core.AllreduceRing))
	expectAlgo(t, got, core.AllreduceRecursiveDoubling, 2)
	// Tree is honored as forced (it has no alignment requirement).
	got = collProfile(t, "4cont", 4, 12, force(core.AllreduceTree))
	expectAlgo(t, got, core.AllreduceTree, 4)
}

// TestCoResidentFraction checks the selector's locality input comes from
// the deployment's ground truth: 1.0 for co-resident jobs, below 1 across
// hosts, and 1.0 again for single-rank worlds by convention.
func TestCoResidentFraction(t *testing.T) {
	frac := func(scenario string, n int) float64 {
		opts := DefaultOptions()
		opts.Mode = core.ModeLocalityAware
		w := testWorld(t, scenario, n, opts)
		return w.partition().coResFrac
	}
	if got := frac("4cont", 4); got != 1 {
		t.Errorf("co-resident fraction = %v, want 1", got)
	}
	if got := frac("2host", 4); got >= 1 {
		t.Errorf("2-host fraction = %v, want < 1", got)
	}
	if got := frac("native", 1); got != 1 {
		t.Errorf("singleton fraction = %v, want 1", got)
	}
	// Isolated namespaces keep hostname locality (default mode), so the
	// fraction stays 1 on one host; locality-aware mode requires a shared
	// IPC namespace and must see isolated containers as remote.
	opts := DefaultOptions()
	opts.Mode = core.ModeLocalityAware
	w := testWorld(t, "isolated", 4, opts)
	if got := w.partition().coResFrac; got >= 1 {
		t.Errorf("isolated locality-aware fraction = %v, want < 1", got)
	}
}
