package mpi_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/experiments"
	"cmpi/internal/mpi"
	"cmpi/internal/osu"
	"cmpi/internal/trace"
)

// osuPrograms runs three programs whose every buffer is AllocMem's — a
// ping-pong, a put-bandwidth sweep over a WinAllocate window, a 16-rank
// Alltoall — each in a fresh recorded world, and returns their series and
// trace digests as one string. Nothing in it may depend on what the buffers
// held when they were handed out.
func osuPrograms(t *testing.T) string {
	t.Helper()
	cfg := osu.Config{Iters: 3, Warmup: 1, Window: 16}
	var out bytes.Buffer
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
		fmt.Fprintf(&out, "%s %v trace %x\n", job.name, series, sha256.Sum256(stream.Bytes()))
	}
	return out.String()
}

// TestAllocMemContentsNeverReachOSUResults: AllocMem's memory is undefined,
// and no simulated result may read it. The same programs give the same series
// and traces whether the pools hand out zeros (an empty depot: everything is
// fresh from the allocator), the previous run's payloads, or — under
// poolStrict — poison.
func TestAllocMemContentsNeverReachOSUResults(t *testing.T) {
	core.DropDepot()
	zeros := osuPrograms(t)
	if payloads := osuPrograms(t); payloads != zeros {
		t.Errorf("on the previous run's buffers:\n%s\nwant, as on fresh ones:\n%s", payloads, zeros)
	}
	was := mpi.SetPoolStrict(true)
	t.Cleanup(func() { mpi.SetPoolStrict(was) })
	osuPrograms(t) // leaves poisoned buffers behind
	if poisoned := osuPrograms(t); poisoned != zeros {
		t.Errorf("on poisoned buffers:\n%s\nwant, as on fresh ones:\n%s", poisoned, zeros)
	}
}

// TestPoolStrictKeepsGoldenTracesAndChaosHunts runs the jobs that
// internal/experiments owns with poolStrict on — every depot buffer poisoned,
// the conservation law asserted at the end of every clean world — and wants
// what it wants with the hook off: both golden traces byte-identical to their
// fixtures, and three chaos hunts (crashed, respawned and shrunk worlds, one
// after another on a warm depot) printing the same report. The AllocMem-built
// OSU programs ride along.
func TestPoolStrictKeepsGoldenTracesAndChaosHunts(t *testing.T) {
	programs := osuPrograms(t)
	hunts := map[int64]string{}
	for _, seed := range []int64{7, 42, 1337} {
		var out bytes.Buffer
		if err := experiments.Chaos(seed, experiments.Quick, &out); err != nil {
			t.Fatalf("chaos seed %d: %v", seed, err)
		}
		hunts[seed] = out.String()
	}

	was := mpi.SetPoolStrict(true)
	t.Cleanup(func() { mpi.SetPoolStrict(was) })
	for _, job := range []struct {
		fixture string
		run     func(io.Writer) error
	}{
		{"golden.trace", experiments.GoldenTrace},
		{"golden-fattree.trace", experiments.GoldenTraceFatTree},
	} {
		want, err := os.ReadFile("../experiments/testdata/" + job.fixture)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := job.run(&got); err != nil {
			t.Fatalf("%s: %v", job.fixture, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: trace differs from the fixture under poolStrict", job.fixture)
		}
	}
	if got := osuPrograms(t); got != programs {
		t.Errorf("osu programs under poolStrict:\n%s\nwant:\n%s", got, programs)
	}
	for seed, want := range hunts {
		var out bytes.Buffer
		if err := experiments.Chaos(seed, experiments.Quick, &out); err != nil {
			t.Fatalf("chaos seed %d under poolStrict: %v", seed, err)
		}
		if out.String() != want {
			t.Errorf("chaos seed %d under poolStrict:\n%s\nwant:\n%s", seed, out.String(), want)
		}
	}
}
