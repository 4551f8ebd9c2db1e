package mpi_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/experiments"
	"cmpi/internal/invariant"
	"cmpi/internal/mpi"
	"cmpi/internal/osu"
	"cmpi/internal/trace"
)

// osuPrograms runs three programs whose every buffer is AllocMem's — a
// ping-pong, a put-bandwidth sweep over a WinAllocate window, a 16-rank
// Alltoall — each in a fresh recorded world. Its digest covers their series,
// world digests and traces: nothing in it may depend on what the buffers held
// when they were handed out.
func osuPrograms(t *testing.T, _ invariant.Point) invariant.Result {
	t.Helper()
	cfg := osu.Config{Iters: 3, Warmup: 1, Window: 16}
	var parts []any
	for _, job := range []struct {
		name         string
		hosts, ranks int
		run          func(*mpi.World) (osu.Series, error)
	}{
		{"latency", 1, 2, func(w *mpi.World) (osu.Series, error) { return osu.Latency(w, osu.PowersOfTwo(8, 256<<10), cfg) }},
		{"put_bw", 1, 2, func(w *mpi.World) (osu.Series, error) {
			return osu.PutBandwidth(w, osu.PowersOfTwo(1<<10, 256<<10), cfg)
		}},
		{"alltoall", 2, 16, func(w *mpi.World) (osu.Series, error) {
			return osu.Collective(w, osu.Alltoall, []int{16, 1 << 10, 16 << 10}, cfg)
		}},
	} {
		spec := cluster.Spec{Hosts: job.hosts, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
		d, err := cluster.Containers(cluster.MustNew(spec), 2, job.ranks, cluster.PaperScenarioOpts())
		if err != nil {
			t.Fatal(err)
		}
		var stream bytes.Buffer
		opts := mpi.DefaultOptions()
		opts.Record = trace.NewRecorder(&stream)
		w, err := mpi.NewWorld(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		series, err := job.run(w)
		if err == nil {
			err = opts.Record.Err()
		}
		if err != nil {
			t.Fatalf("%s: %v", job.name, err)
		}
		parts = append(parts, job.name, series, w.Digest(), invariant.SumBytes(stream.Bytes()))
	}
	return invariant.Result{Digest: invariant.Sum(parts...)}
}

// TestAllocMemContentsNeverReachOSUResults: AllocMem's memory is undefined,
// and no simulated result may read it. The same programs give the same
// series, world digests and traces whether the pools hand out what earlier
// worlds left (at least the payloads of the programs' own first world), zeros
// (an emptied depot: everything is fresh from the allocator) or, under
// poolStrict, poison.
func TestAllocMemContentsNeverReachOSUResults(t *testing.T) {
	invariant.Check(t, osuPrograms, invariant.Point{}, invariant.Point{DropDepot: true}, invariant.Point{PoolStrict: true})
}

// TestPoolStrictKeepsGoldenTracesAndChaosHunts runs the jobs that
// internal/experiments owns with poolStrict on — every depot buffer poisoned,
// the conservation law asserted at the end of every clean world — and wants
// what it gets with the hook off: both golden traces byte-identical to their
// fixtures, and three chaos hunts (crashed, respawned and shrunk worlds, one
// after another on a warm depot) printing the same report, at dispatch width
// four too. The AllocMem-built OSU programs have the same row in
// TestAllocMemContentsNeverReachOSUResults.
func TestPoolStrictKeepsGoldenTracesAndChaosHunts(t *testing.T) {
	for _, job := range []struct {
		fixture string
		run     func(io.Writer) error
	}{
		{"golden.trace", experiments.GoldenTrace},
		{"golden-fattree.trace", experiments.GoldenTraceFatTree},
	} {
		t.Run(job.fixture, func(t *testing.T) {
			res := invariant.Check(t, func(t *testing.T, _ invariant.Point) invariant.Result {
				var buf bytes.Buffer
				if err := job.run(&buf); err != nil {
					t.Fatal(err)
				}
				return invariant.Result{Trace: buf.Bytes()}
			}, invariant.Point{Record: true}, invariant.Point{Record: true, PoolStrict: true})
			want, err := os.ReadFile("../experiments/testdata/" + job.fixture)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Trace, want) {
				t.Error("trace differs from the fixture")
			}
		})
	}
	for _, seed := range []int64{7, 42, 1337} {
		t.Run(fmt.Sprint("chaos-", seed), func(t *testing.T) {
			invariant.Check(t, func(t *testing.T, _ invariant.Point) invariant.Result {
				var out bytes.Buffer
				if err := experiments.Chaos(seed, experiments.Quick, &out); err != nil {
					t.Fatal(err)
				}
				return invariant.Result{Digest: invariant.Sum(out.String())}
			}, invariant.Point{}, invariant.Point{Width: 4}, invariant.Point{PoolStrict: true})
		})
	}
}
