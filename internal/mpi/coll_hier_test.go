package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/sim"
)

func hierWorld(t *testing.T, procs int, mode core.Mode, hier bool) *World {
	t.Helper()
	hosts := 1
	if procs > 16 {
		hosts = procs / 16
	}
	spec := cluster.Spec{Hosts: hosts, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), 2, procs, cluster.PaperScenarioOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Mode = mode
	opts.HierarchicalCollectives = hier
	w, err := NewWorld(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestHierarchicalAllreduceCorrect(t *testing.T) {
	for _, procs := range []int{2, 4, 6, 8, 32} {
		for _, mode := range []core.Mode{core.ModeDefault, core.ModeLocalityAware} {
			w := hierWorld(t, procs, mode, true)
			err := w.Run(func(r *Rank) error {
				want := int64(r.Size() * (r.Size() - 1) / 2)
				for i := 0; i < 3; i++ {
					if got := r.AllreduceInt64(int64(r.Rank()), SumInt64); got != want {
						return fmt.Errorf("procs=%d mode=%v iter=%d: got %d want %d", procs, mode, i, got, want)
					}
				}
				// Vector form.
				buf := EncodeFloat64s([]float64{1, float64(r.Rank())})
				r.Allreduce(buf, SumFloat64)
				got := DecodeFloat64s(buf)
				if got[0] != float64(r.Size()) || got[1] != float64(want) {
					return fmt.Errorf("vector allreduce got %v", got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestHierarchicalBcastCorrect(t *testing.T) {
	for _, procs := range []int{2, 6, 8, 32} {
		w := hierWorld(t, procs, core.ModeLocalityAware, true)
		err := w.Run(func(r *Rank) error {
			for root := 0; root < r.Size(); root++ {
				data := make([]byte, 1024)
				if r.Rank() == root {
					for i := range data {
						data[i] = byte(root + i)
					}
				}
				r.Bcast(root, data)
				for i := range data {
					if data[i] != byte(root+i) {
						return fmt.Errorf("procs=%d root=%d: byte %d = %d", procs, root, i, data[i])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestHierarchicalMixesWithOtherCollectives(t *testing.T) {
	// Hierarchical calls mint multiple tags; subsequent flat collectives
	// must stay aligned across ranks.
	w := hierWorld(t, 8, core.ModeLocalityAware, true)
	err := w.Run(func(r *Rank) error {
		for i := 0; i < 5; i++ {
			if got := r.AllreduceInt64(1, SumInt64); got != 8 {
				return fmt.Errorf("allreduce %d", got)
			}
			r.Barrier()
			b := []byte{byte(i)}
			r.Bcast(i%r.Size(), b)
			if b[0] != byte(i) {
				return fmt.Errorf("bcast corrupted")
			}
			mine := []byte{byte(r.Rank())}
			all := make([]byte, r.Size())
			r.Allgather(mine, all)
			for j := range all {
				if all[j] != byte(j) {
					return fmt.Errorf("allgather corrupted")
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalFasterOnMultiHost(t *testing.T) {
	measure := func(hier bool) sim.Time {
		w := hierWorld(t, 64, core.ModeLocalityAware, hier)
		if err := w.Run(func(r *Rank) error {
			buf := make([]byte, 1024)
			for i := 0; i < 10; i++ {
				r.Allreduce(buf, SumFloat64)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxBodyTime()
	}
	flat := measure(false)
	hier := measure(true)
	if hier >= flat {
		t.Errorf("hierarchical allreduce (%v) not faster than flat (%v) at 64 ranks / 4 hosts", hier, flat)
	}
}

func TestLockedDetectorSlowsInit(t *testing.T) {
	initTime := func(locked bool) sim.Time {
		spec := cluster.Spec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
		d, err := cluster.Containers(cluster.MustNew(spec), 4, 24, cluster.PaperScenarioOpts())
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.LockedDetector = locked
		w, err := NewWorld(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		var latest sim.Time
		if err := w.Run(func(r *Rank) error {
			if r.Now() > latest {
				latest = r.Now() // time when body starts = init completion
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return latest
	}
	free := initTime(false)
	locked := initTime(true)
	if locked <= free {
		t.Errorf("locked detector init (%v) should exceed lock-free init (%v)", locked, free)
	}
	// 24 co-resident publishers serialized at 150ns each vs parallel 20ns:
	// expect at least ~2us extra.
	if locked-free < 2*sim.Microsecond {
		t.Errorf("lock serialization only cost %v, want >= 2us", locked-free)
	}
}

// swappedWorld is 3 hosts of one container each and 6 ranks in
// locality-aware mode, with placements 1 and 4 exchanged: the groups are
// {0,4}, {2,3} and {1,5}, so only the middle one is a rank range.
func swappedWorld(t *testing.T, hier bool) *World {
	t.Helper()
	spec := cluster.Spec{Hosts: 3, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), 1, 6, cluster.PaperScenarioOpts())
	if err != nil {
		t.Fatal(err)
	}
	p := d.Placements
	p[1].Env, p[4].Env = p[4].Env, p[1].Env
	p[1].Core, p[4].Core = p[4].Core, p[1].Core
	opts := DefaultOptions()
	opts.Mode = core.ModeLocalityAware
	opts.HierarchicalCollectives = hier
	w, err := NewWorld(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestHierarchicalAllgatherCorrect checks the two-level Allgather against
// the block each rank contributed and against the flat algorithm's bytes,
// including a deployment where only some groups are rank ranges (the
// ranks of those must not take the two-level path alone).
func TestHierarchicalAllgatherCorrect(t *testing.T) {
	const k = 16
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, hier bool) *World
	}{
		{"2", func(t *testing.T, hier bool) *World { return hierWorld(t, 2, core.ModeLocalityAware, hier) }},
		{"8", func(t *testing.T, hier bool) *World { return hierWorld(t, 8, core.ModeLocalityAware, hier) }},
		{"32", func(t *testing.T, hier bool) *World { return hierWorld(t, 32, core.ModeLocalityAware, hier) }},
		{"swapped", swappedWorld},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2][][]byte
			for i, hier := range []bool{false, true} {
				w := tc.build(t, hier)
				outs := make([][]byte, w.Size())
				err := w.Run(func(r *Rank) error {
					mine := make([]byte, k)
					for i := range mine {
						mine[i] = byte(r.Rank()*5 + i)
					}
					out := make([]byte, k*r.Size())
					// Twice, so the tags must stay aligned.
					for range 2 {
						clear(out)
						r.Allgather(mine, out)
						for src := 0; src < r.Size(); src++ {
							for i := 0; i < k; i++ {
								if out[src*k+i] != byte(src*5+i) {
									return fmt.Errorf("hier=%v: block %d byte %d wrong", hier, src, i)
								}
							}
						}
					}
					outs[r.Rank()] = out
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				got[i] = outs
			}
			for rank := range got[0] {
				if !bytes.Equal(got[0][rank], got[1][rank]) {
					t.Errorf("rank %d: two-level result differs from flat", rank)
				}
			}
		})
	}
}
