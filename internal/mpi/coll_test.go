package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/sim"
)

// collWorld builds an n-rank world spread over containers on enough hosts.
func collWorld(t *testing.T, n int, mode core.Mode) *World {
	t.Helper()
	hosts := 1
	if n > 16 {
		hosts = n / 16
	}
	spec := cluster.Spec{Hosts: hosts, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	contsPerHost := 2
	if (n/hosts)%contsPerHost != 0 {
		contsPerHost = 1
	}
	d, err := cluster.Containers(cluster.MustNew(spec), contsPerHost, n, cluster.PaperScenarioOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Mode = mode
	w, err := NewWorld(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

var collSizes = []int{1, 2, 3, 4, 5, 7, 8, 12, 16}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range collSizes {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			w := collWorld(t, n, core.ModeLocalityAware)
			var maxBefore, minAfter sim.Time
			minAfter = 1 << 62
			err := w.Run(func(r *Rank) error {
				// Stagger arrivals.
				r.Compute(float64(r.Rank()) * 10000)
				before := r.Now()
				r.Barrier()
				after := r.Now()
				if before > maxBefore {
					maxBefore = before
				}
				if after < minAfter {
					minAfter = after
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if minAfter < maxBefore {
				t.Errorf("rank left barrier at %v before last arrival at %v", minAfter, maxBefore)
			}
		})
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, n := range collSizes {
		w := collWorld(t, n, core.ModeLocalityAware)
		err := w.Run(func(r *Rank) error {
			for root := 0; root < r.Size(); root++ {
				for _, sz := range []int{1, 100, 8192, 100000} {
					data := make([]byte, sz)
					if r.Rank() == root {
						for i := range data {
							data[i] = byte(root + i)
						}
					}
					r.Bcast(root, data)
					for i := range data {
						if data[i] != byte(root+i) {
							return fmt.Errorf("n=%d root=%d sz=%d: byte %d = %d", n, root, sz, i, data[i])
						}
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

func TestAllreduceSumMatchesSequential(t *testing.T) {
	for _, n := range collSizes {
		w := collWorld(t, n, core.ModeLocalityAware)
		err := w.Run(func(r *Rank) error {
			vals := []float64{float64(r.Rank()) + 1, float64(r.Rank()) * 2.5, -3}
			buf := EncodeFloat64s(vals)
			r.Allreduce(buf, SumFloat64)
			got := DecodeFloat64s(buf)
			s := r.Size()
			want := []float64{float64(s*(s+1)) / 2, 2.5 * float64(s*(s-1)) / 2, -3 * float64(s)}
			for i := range want {
				if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
					return fmt.Errorf("n=%d elem %d: got %v want %v", n, i, got[i], want[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceMinMaxInt(t *testing.T) {
	w := collWorld(t, 7, core.ModeLocalityAware)
	err := w.Run(func(r *Rank) error {
		if got := r.AllreduceInt64(int64(r.Rank()*10), MaxInt64); got != 60 {
			return fmt.Errorf("max = %d", got)
		}
		if got := r.AllreduceInt64(int64(r.Rank()*10), MinInt64); got != 0 {
			return fmt.Errorf("min = %d", got)
		}
		if got := r.AllreduceInt64(1, SumInt64); got != 7 {
			return fmt.Errorf("sum = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceToEveryRoot(t *testing.T) {
	w := collWorld(t, 6, core.ModeLocalityAware)
	err := w.Run(func(r *Rank) error {
		for root := 0; root < r.Size(); root++ {
			buf := EncodeInt64s([]int64{int64(r.Rank() + 1)})
			r.Reduce(root, buf, SumInt64)
			if r.Rank() == root {
				if got := DecodeInt64s(buf)[0]; got != 21 {
					return fmt.Errorf("root %d: sum = %d, want 21", root, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherPow2AndRing(t *testing.T) {
	for _, n := range collSizes {
		w := collWorld(t, n, core.ModeLocalityAware)
		err := w.Run(func(r *Rank) error {
			const k = 24
			mine := make([]byte, k)
			for i := range mine {
				mine[i] = byte(r.Rank()*7 + i)
			}
			out := make([]byte, k*r.Size())
			r.Allgather(mine, out)
			for src := 0; src < r.Size(); src++ {
				for i := 0; i < k; i++ {
					if out[src*k+i] != byte(src*7+i) {
						return fmt.Errorf("n=%d block %d byte %d = %d", n, src, i, out[src*k+i])
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

func TestAlltoallPermutation(t *testing.T) {
	for _, n := range collSizes {
		w := collWorld(t, n, core.ModeLocalityAware)
		err := w.Run(func(r *Rank) error {
			const k = 16
			send := make([]byte, k*r.Size())
			for dst := 0; dst < r.Size(); dst++ {
				for i := 0; i < k; i++ {
					send[dst*k+i] = byte(r.Rank()*31 + dst*3 + i)
				}
			}
			recv := make([]byte, k*r.Size())
			r.Alltoall(send, recv, k)
			for src := 0; src < r.Size(); src++ {
				for i := 0; i < k; i++ {
					if want := byte(src*31 + r.Rank()*3 + i); recv[src*k+i] != want {
						return fmt.Errorf("n=%d from %d byte %d: got %d want %d",
							n, src, i, recv[src*k+i], want)
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

func TestGatherScatterRoundTrip(t *testing.T) {
	w := collWorld(t, 8, core.ModeLocalityAware)
	err := w.Run(func(r *Rank) error {
		const k = 32
		mine := make([]byte, k)
		for i := range mine {
			mine[i] = byte(r.Rank() ^ i)
		}
		var all []byte
		if r.Rank() == 2 {
			all = make([]byte, k*r.Size())
		}
		r.Gather(2, mine, all)
		if r.Rank() == 2 {
			for src := 0; src < r.Size(); src++ {
				for i := 0; i < k; i++ {
					if all[src*k+i] != byte(src^i) {
						return fmt.Errorf("gather block %d corrupt", src)
					}
				}
			}
		}
		// Scatter back and verify.
		back := make([]byte, k)
		r.Scatter(2, all, back)
		if !bytes.Equal(back, mine) {
			return fmt.Errorf("scatter returned wrong block to rank %d", r.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesFasterWithLocalityAwareness(t *testing.T) {
	// 16 ranks over 4 containers on one host: aware mode must beat default
	// mode for allreduce/allgather wall time.
	measure := func(mode core.Mode) sim.Time {
		w := testWorld(t, "4cont", 16, Options{
			Mode: mode, Tunables: core.DefaultTunables(), Params: DefaultOptions().Params,
		})
		if err := w.Run(func(r *Rank) error {
			buf := make([]byte, 4096)
			for i := 0; i < 20; i++ {
				r.Allreduce(buf, SumFloat64)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxBodyTime()
	}
	def := measure(core.ModeDefault)
	aware := measure(core.ModeLocalityAware)
	if aware >= def {
		t.Errorf("aware allreduce %v not faster than default %v", aware, def)
	}
}

func TestCollectiveSequencesDoNotCrossTalk(t *testing.T) {
	// Back-to-back different collectives must not mismatch internally.
	w := collWorld(t, 5, core.ModeLocalityAware)
	err := w.Run(func(r *Rank) error {
		for i := 0; i < 10; i++ {
			b := []byte{byte(i)}
			r.Bcast(i%r.Size(), b)
			if b[0] != byte(i) {
				return fmt.Errorf("iter %d bcast corrupted", i)
			}
			r.Barrier()
			if got := r.AllreduceInt64(int64(i), MaxInt64); got != int64(i) {
				return fmt.Errorf("iter %d allreduce got %d", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceIdentityProperty(t *testing.T) {
	// Property: allreduce(BOr) of one-hot vectors yields the full mask.
	f := func(nRaw uint8) bool {
		n := 2 + int(nRaw)%6
		w := collWorld(t, n, core.ModeLocalityAware)
		ok := true
		err := w.Run(func(r *Rank) error {
			buf := make([]byte, n)
			buf[r.Rank()] = 0xFF
			r.Allreduce(buf, BOr)
			for i := 0; i < n; i++ {
				if buf[i] != 0xFF {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceRabenseifnerLargeBuffers(t *testing.T) {
	// Large buffers cross the Rabenseifner threshold; verify exact results
	// for pow2 and non-pow2 rank counts and check it actually engaged
	// (buffer evenly segmentable) vs fell back (odd size).
	for _, n := range []int{2, 3, 4, 6, 8, 16} {
		w := collWorld(t, n, core.ModeLocalityAware)
		err := w.Run(func(r *Rank) error {
			const elems = 8192 // 64 KiB, divisible by 8*pof2 for all tested n
			vals := make([]float64, elems)
			for i := range vals {
				vals[i] = float64(r.Rank()+1) * float64(i%17)
			}
			buf := EncodeFloat64s(vals)
			r.Allreduce(buf, SumFloat64)
			got := DecodeFloat64s(buf)
			s := float64(r.Size()*(r.Size()+1)) / 2
			for i := range got {
				want := s * float64(i%17)
				if d := got[i] - want; d > 1e-9 || d < -1e-9 {
					return fmt.Errorf("n=%d elem %d: got %v want %v", n, i, got[i], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceLargeFasterThanRecursiveDoubling(t *testing.T) {
	// The point of Rabenseifner: at large sizes the bandwidth term drops
	// from log2(P)*n to ~2n. Compare against a world with the threshold
	// disabled.
	measure := func(threshold int) sim.Time {
		opts := DefaultOptions()
		opts.Tunables.AllreduceLargeThreshold = threshold
		w := testWorld(t, "2host4cont", 16, opts)
		if err := w.Run(func(r *Rank) error {
			buf := make([]byte, 1<<20)
			for i := 0; i < 3; i++ {
				r.Allreduce(buf, SumFloat64)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxBodyTime()
	}
	rab := measure(16 * 1024)
	rd := measure(1 << 30) // never engage
	if rab >= rd {
		t.Errorf("Rabenseifner (%v) not faster than recursive doubling (%v) at 1MiB", rab, rd)
	}
}

// TestRootedCollectivesRejectRootOutside: every rooted collective, called
// through the world or a communicator, aborts the job naming a root outside
// the group, instead of broadcasting nothing, panicking, or failing inside a
// point-to-point call the user never made.
func TestRootedCollectivesRejectRootOutside(t *testing.T) {
	const n = 4
	counts := []int{8, 8, 8, 8}
	calls := []struct {
		name, family string
		hier         bool
		run          func(r *Rank, root int)
	}{
		{"Rank.Bcast", "Bcast", false, func(r *Rank, root int) { r.Bcast(root, make([]byte, 8)) }},
		{"Comm.Bcast", "Bcast", false, func(r *Rank, root int) { r.CommWorld().Bcast(root, make([]byte, 8)) }},
		{"Rank.Bcast/hierarchical", "Bcast", true, func(r *Rank, root int) { r.Bcast(root, make([]byte, 8)) }},
		{"Rank.Reduce", "Reduce", false, func(r *Rank, root int) { r.Reduce(root, make([]byte, 8), SumInt64) }},
		{"Comm.Reduce", "Reduce", false, func(r *Rank, root int) { r.CommWorld().Reduce(root, make([]byte, 8), SumInt64) }},
		{"Rank.Gather", "Gather", false, func(r *Rank, root int) { r.Gather(root, make([]byte, 8), make([]byte, 8*n)) }},
		{"Comm.Gather", "Gather", false, func(r *Rank, root int) { r.CommWorld().Gather(root, make([]byte, 8), make([]byte, 8*n)) }},
		{"Rank.Gatherv", "Gather", false, func(r *Rank, root int) { r.Gatherv(root, make([]byte, 8), counts, make([]byte, 8*n)) }},
		{"Rank.Scatter", "Scatter", false, func(r *Rank, root int) { r.Scatter(root, make([]byte, 8*n), make([]byte, 8)) }},
		{"Comm.Scatter", "Scatter", false, func(r *Rank, root int) { r.CommWorld().Scatter(root, make([]byte, 8*n), make([]byte, 8)) }},
		{"Rank.Scatterv", "Scatter", false, func(r *Rank, root int) { r.Scatterv(root, make([]byte, 8*n), counts, make([]byte, 8)) }},
	}
	for _, c := range calls {
		for _, root := range []int{-1, n} {
			t.Run(fmt.Sprintf("%s/root=%d", c.name, root), func(t *testing.T) {
				opts := DefaultOptions()
				opts.HierarchicalCollectives = c.hier
				w := testWorld(t, "2cont", n, opts)
				err := w.Run(func(r *Rank) error {
					c.run(r, root)
					return nil
				})
				want := fmt.Sprintf("%s root %d outside communicator of size %d", c.family, root, n)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s with root %d: error %v, want one naming %q", c.name, root, err, want)
				}
			})
		}
	}
}
