package osu

import (
	"runtime"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/mpi"
)

// pairWorld builds a 2-rank world: two co-resident containers (paper
// config) or a native pair, on one 2-socket host.
func pairWorld(t *testing.T, containers bool, mode core.Mode) *mpi.World {
	t.Helper()
	spec := cluster.Spec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	c := cluster.MustNew(spec)
	var d *cluster.Deployment
	var err error
	if containers {
		d, err = cluster.TwoContainersSockets(c, true, cluster.PaperScenarioOpts())
	} else {
		d, err = cluster.NativePair(c, true)
	}
	if err != nil {
		t.Fatal(err)
	}
	opts := mpi.DefaultOptions()
	opts.Mode = mode
	w, err := mpi.NewWorld(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func quickCfg() Config { return Config{Iters: 20, Warmup: 2, Window: 16} }

func TestPowersOfTwo(t *testing.T) {
	got := PowersOfTwo(1, 16)
	want := []int{1, 2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

// TestPowersOfTwoRejectsNonPositiveLo pins the lo >= 1 guard: lo <= 0 used
// to loop forever (0 << 1 never reaches hi), now it must panic loudly.
func TestPowersOfTwoRejectsNonPositiveLo(t *testing.T) {
	for _, lo := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PowersOfTwo(%d, 16) did not panic", lo)
				}
			}()
			PowersOfTwo(lo, 16)
		}()
	}
}

func TestLatencyShape(t *testing.T) {
	sizes := PowersOfTwo(4, 1<<16)
	s, err := Latency(pairWorld(t, true, core.ModeLocalityAware), sizes, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != len(sizes) {
		t.Fatalf("series has %d points, want %d", len(s), len(sizes))
	}
	// Latency must be positive and nondecreasing-ish (allow small jitter at
	// protocol switch points but never a big drop).
	for i, r := range s {
		if r.Value <= 0 {
			t.Errorf("latency at %d bytes = %v", r.Bytes, r.Value)
		}
		if i > 0 && r.Value < s[i-1].Value*0.7 {
			t.Errorf("latency dropped sharply at %d bytes: %v -> %v", r.Bytes, s[i-1].Value, r.Value)
		}
	}
	// Small-message latency should be sub-microsecond on SHM.
	if v, _ := s.At(4); v > 1.0 {
		t.Errorf("4-byte aware latency = %vus, want < 1us", v)
	}
}

func TestLatencyDefaultVsAware(t *testing.T) {
	sizes := []int{1024}
	cfg := quickCfg()
	def, err := Latency(pairWorld(t, true, core.ModeDefault), sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Latency(pairWorld(t, true, core.ModeLocalityAware), sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	native, err := Latency(pairWorld(t, false, core.ModeDefault), sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := def.At(1024)
	a, _ := aware.At(1024)
	n, _ := native.At(1024)
	// Paper: 2.26us default, 0.47us aware, 0.44us native at 1KiB.
	if d < 1.5 || d > 3.5 {
		t.Errorf("default 1KiB latency = %.2fus, want ~2.26us", d)
	}
	if a < 0.3 || a > 0.8 {
		t.Errorf("aware 1KiB latency = %.2fus, want ~0.47us", a)
	}
	if n >= a {
		t.Errorf("native %.2fus should be at or below aware %.2fus", n, a)
	}
	if (a-n)/n > 0.15 {
		t.Errorf("aware overhead over native = %.0f%%, paper reports ~7%%", (a-n)/n*100)
	}
}

func TestBandwidthGrowsWithSize(t *testing.T) {
	sizes := PowersOfTwo(1024, 1<<20)
	s, err := Bandwidth(pairWorld(t, true, core.ModeLocalityAware), sizes, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	small, _ := s.At(1024)
	big, _ := s.At(1 << 20)
	if big <= small {
		t.Errorf("bandwidth did not grow: %v MB/s at 1K vs %v MB/s at 1M", small, big)
	}
	// Large-message CMA bandwidth should be in the GB/s range.
	if big < 3000 {
		t.Errorf("1MiB aware bandwidth = %v MB/s, want > 3000", big)
	}
}

func TestBiBandwidthExceedsUnidirectional(t *testing.T) {
	sizes := []int{1 << 18}
	cfg := quickCfg()
	uni, err := Bandwidth(pairWorld(t, true, core.ModeLocalityAware), sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := BiBandwidth(pairWorld(t, true, core.ModeLocalityAware), sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := uni.At(1 << 18)
	b, _ := bi.At(1 << 18)
	if b <= u {
		t.Errorf("bibw %v MB/s should exceed bw %v MB/s", b, u)
	}
}

func TestBiBandwidthGapDefaultVsAware(t *testing.T) {
	// The paper's largest pt2pt win (407%) is bidirectional bandwidth:
	// the HCA loopback is a shared resource, shared memory is not.
	sizes := []int{1 << 16}
	cfg := quickCfg()
	def, err := BiBandwidth(pairWorld(t, true, core.ModeDefault), sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := BiBandwidth(pairWorld(t, true, core.ModeLocalityAware), sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := def.At(1 << 16)
	a, _ := aware.At(1 << 16)
	if a < 2*d {
		t.Errorf("aware bibw %v MB/s should be >= 2x default %v MB/s", a, d)
	}
}

func TestMessageRate(t *testing.T) {
	s, err := MessageRate(pairWorld(t, true, core.ModeLocalityAware), []int{8}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rate, _ := s.At(8)
	// Sub-microsecond per message on SHM: rate should exceed 1M msg/s.
	if rate < 1e6 {
		t.Errorf("8-byte message rate = %v msg/s, want > 1e6", rate)
	}
}

func TestCollectiveBenchmarks(t *testing.T) {
	spec := cluster.Spec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	for _, kind := range []CollectiveKind{Bcast, Allreduce, Allgather, Alltoall} {
		t.Run(kind.String(), func(t *testing.T) {
			d, err := cluster.Containers(cluster.MustNew(spec), 2, 8, cluster.PaperScenarioOpts())
			if err != nil {
				t.Fatal(err)
			}
			w, err := mpi.NewWorld(d, mpi.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Iters: 10, Warmup: 2, Window: 16}
			s, err := Collective(w, kind, []int{16, 4096}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			small, ok1 := s.At(16)
			big, ok2 := s.At(4096)
			if !ok1 || !ok2 || small <= 0 || big <= 0 {
				t.Fatalf("series incomplete: %v", s)
			}
			if big < small {
				t.Errorf("%v: 4KiB (%vus) faster than 16B (%vus)", kind, big, small)
			}
		})
	}
}

func TestOneSidedBenchmarks(t *testing.T) {
	cfg := quickCfg()
	sizes := []int{8, 4096}
	pl, err := PutLatency(pairWorld(t, true, core.ModeLocalityAware), sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gl, err := GetLatency(pairWorld(t, true, core.ModeLocalityAware), sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := PutBandwidth(pairWorld(t, true, core.ModeLocalityAware), sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := GetBandwidth(pairWorld(t, true, core.ModeLocalityAware), sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := PutBiBandwidth(pairWorld(t, true, core.ModeLocalityAware), sizes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Series{"put_lat": pl, "get_lat": gl, "put_bw": pb, "get_bw": gb, "put_bibw": bb} {
		if len(s) != 2 {
			t.Errorf("%s: %d points", name, len(s))
		}
		for _, r := range s {
			if r.Value <= 0 {
				t.Errorf("%s at %d = %v", name, r.Bytes, r.Value)
			}
		}
	}
	// Small put via shared memory must be well under a microsecond.
	if v, _ := pl.At(8); v > 0.5 {
		t.Errorf("8-byte aware put latency = %vus, want < 0.5us", v)
	}
}

func TestPutBandwidth9XShape(t *testing.T) {
	// Paper: 4-byte put bandwidth 15.73 Mbps default vs 147.99 Mbps aware
	// (~9X). Check the ratio band 5-20x.
	cfg := quickCfg()
	def, err := PutBandwidth(pairWorld(t, true, core.ModeDefault), []int{4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := PutBandwidth(pairWorld(t, true, core.ModeLocalityAware), []int{4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := def.At(4)
	a, _ := aware.At(4)
	ratio := a / d
	if ratio < 5 || ratio > 20 {
		t.Errorf("4-byte put bw ratio = %.1fx (def %.3f, aware %.3f MB/s), want 5-20x", ratio, d, a)
	}
}

func TestMultiPairBandwidthScalesWithChannels(t *testing.T) {
	// 8 pairs on one host, 4 containers: per-pair SHM rings scale, the
	// shared HCA loopback does not — aware mode should win by a lot.
	build := func(mode core.Mode) *mpi.World {
		spec := cluster.Spec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
		d, err := cluster.Containers(cluster.MustNew(spec), 4, 16, cluster.PaperScenarioOpts())
		if err != nil {
			t.Fatal(err)
		}
		opts := mpi.DefaultOptions()
		opts.Mode = mode
		w, err := mpi.NewWorld(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	cfg := Config{Iters: 10, Warmup: 2, Window: 16}
	aware, err := MultiPairBandwidth(build(core.ModeLocalityAware), []int{16384}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	def, err := MultiPairBandwidth(build(core.ModeDefault), []int{16384}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := aware.At(16384)
	d, _ := def.At(16384)
	if a < 3*d {
		t.Errorf("aware multi-pair bw %v MB/s should be >=3x default %v MB/s (loopback saturates)", a, d)
	}
}

func TestMultiPairBandwidthOddRanksRejected(t *testing.T) {
	spec := cluster.Spec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), 1, 3, cluster.PaperScenarioOpts())
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(d, mpi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MultiPairBandwidth(w, []int{64}, Config{Iters: 2, Warmup: 1, Window: 4}); err == nil {
		t.Fatal("odd rank count accepted")
	}
}

// secondWorld runs the same job in two fresh worlds, one after the other, and
// returns the second with what it allocated (runtime.MemStats.TotalAlloc):
// the first leaves its message memory in the process-wide depot, which
// evicts what earlier tests left to make room for it.
func secondWorld(t *testing.T, world func() *mpi.World, job func(*mpi.World) error) (*mpi.World, uint64) {
	t.Helper()
	if err := job(world()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := world()
	if err := job(w); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return w, after.TotalAlloc - before.TotalAlloc
}

// A size point's buffers are AllocMem's, so a repeat of a world allocates
// what the library and the engine need, not the payloads again. 64 ranks of
// 16 KiB Alltoall hold 128 MiB of send and receive buffers, which with the
// library's own the depot keeps whole: 2.3 MB the second time, where a depot
// that refused what crossed 128 MiB left 6.7.
func TestSecondCollectiveWorldAllocatesNoBuffers(t *testing.T) {
	spec := cluster.Spec{Hosts: 4, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	w, got := secondWorld(t, func() *mpi.World {
		d, err := cluster.Containers(cluster.MustNew(spec), 2, 64, cluster.PaperScenarioOpts())
		if err != nil {
			t.Fatal(err)
		}
		w, err := mpi.NewWorld(d, mpi.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return w
	}, func(w *mpi.World) error {
		_, err := Collective(w, Alltoall, []int{16 << 10}, Config{Iters: 4, Warmup: 1})
		return err
	})
	if got > 4<<20 {
		t.Errorf("second 64-rank Alltoall world allocated %.1f MB, want under 4", float64(got)/(1<<20))
	}
	if refused := w.SimStats().DepotRefused; refused != 0 {
		t.Errorf("DepotRefused = %d, want 0: the depot holds this world's buffers", refused)
	}
}

// The same for the one-sided sweep, whose 16 MiB window is served by the
// depot's large classes.
func TestSecondPutBandwidthWorldAllocatesNoBuffers(t *testing.T) {
	w, got := secondWorld(t, func() *mpi.World { return pairWorld(t, true, core.ModeLocalityAware) }, func(w *mpi.World) error {
		_, err := PutBandwidth(w, PowersOfTwo(16<<10, 1<<20), Config{Iters: 4, Warmup: 1, Window: 16})
		return err
	})
	if got > 2<<20 {
		t.Errorf("second PutBandwidth world allocated %.2f MB, want under 2", float64(got)/(1<<20))
	}
	if refused := w.SimStats().DepotRefused; refused != 0 {
		t.Errorf("DepotRefused = %d for a world that fits the depot several times over", refused)
	}
}
