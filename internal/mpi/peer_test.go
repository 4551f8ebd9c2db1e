package mpi

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/ib"
	"cmpi/internal/sim"
)

// Connection state on first contact: a world costs what its traffic touches.

// peerScaleTopo is the repro scale fat tree: 8-host racks under a two-stage
// spine.
var peerScaleTopo = ib.Topology{RackSize: 8, SpineStages: 2, SpinesPerStage: 4, HopLatency: 150 * sim.Nanosecond}

// scaleDeployment places n ranks 16 to a host (one host up to 16), two
// containers each.
func scaleDeployment(t *testing.T, n int) *cluster.Deployment {
	t.Helper()
	spec := cluster.Spec{Hosts: max(1, n/16), SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), 2, n, cluster.PaperScenarioOpts())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStateSizes holds the bytes a world spends per rank, per named pair and
// per message in flight: each ceiling is the size the struct has, a multiple
// of its allocation class. A Rank, the one object above 512 bytes, also
// carries the allocator's 8-byte header, so 1144 bytes fill the 1152-byte
// class and 1152 would take 1280. A field that grows one of these shows here
// before it shows in bytes per rank (TestFullFidelity4096) or in a
// benchmark's alloc_mb.
func TestStateSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"Rank", unsafe.Sizeof(Rank{}), 1144},
		{"peerRec", unsafe.Sizeof(peerRec{}), 48},
		{"pairShared", unsafe.Sizeof(pairShared{}), 48},
		{"shmRing", unsafe.Sizeof(shmRing{}), 224},
		{"ringDir", unsafe.Sizeof(ringDir{}), 112},
		{"ib.QP", unsafe.Sizeof(ib.QP{}), 64},
		{"Request", unsafe.Sizeof(Request{}), 144},
		{"envelope", unsafe.Sizeof(envelope{}), 112},
		{"sendOp", unsafe.Sizeof(sendOp{}), 96},
		{"shmPacket", unsafe.Sizeof(shmPacket{}), 96},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.size, c.max)
		}
	}
}

func TestPeerTableFindsEveryRecord(t *testing.T) {
	var tab peerTable
	// Ranks that collide modulo any small table size, and a dense run.
	var ranks []int
	for i := 0; i < 40; i++ {
		ranks = append(ranks, i*64, 4095-i)
	}
	for n, rank := range ranks {
		if tab.find(rank) != nil {
			t.Fatalf("rank %d found before it was added", rank)
		}
		tab.add(&peerRec{rank: int32(rank)})
		if 8*tab.n > 7*len(tab.idx) {
			t.Fatalf("%d records in an index of %d slots: more than seven eighths full", tab.n, len(tab.idx))
		}
		for _, seen := range ranks[:n+1] {
			if pr := tab.find(seen); pr == nil || int(pr.rank) != seen {
				t.Fatalf("after %d adds: find(%d) = %v", n+1, seen, pr)
			}
		}
	}
	i := 0
	for pr := tab.first; pr != nil; pr = pr.next {
		if int(pr.rank) != ranks[i] {
			t.Fatalf("record %d is rank %d, want %d: not in first-contact order", i, pr.rank, ranks[i])
		}
		i++
	}
	if i != len(ranks) || tab.n != len(ranks) {
		t.Fatalf("the table lists %d records and counts %d, want %d", i, tab.n, len(ranks))
	}
}

// pairCount is the number of pair records a world holds: those its ranks'
// peer records share, each counted at its lower rank or, where that rank
// never named the pair, at the higher.
func pairCount(w *World) int {
	n := 0
	for _, r := range w.ranks {
		for pr := r.peers.first; pr != nil; pr = pr.next {
			if lo := int(pr.ps.lo); lo == r.rank || w.ranks[lo].peers.lookup(r.rank) == nil {
				n++
			}
		}
	}
	return n
}

// TestNeedsHCAMatchesPerPeerScan compares initPost's counting rule with the
// per-peer scan it replaces, on deployments that exercise each term: the
// hostname test, the detector, private namespaces, several hosts.
func TestNeedsHCAMatchesPerPeerScan(t *testing.T) {
	for _, scenario := range allScenarios {
		for _, mode := range []core.Mode{core.ModeDefault, core.ModeLocalityAware} {
			opts := DefaultOptions()
			opts.Mode = mode
			w := testWorld(t, scenario, 8, opts)
			err := w.Run(func(r *Rank) error {
				want := false
				for peer := 0; peer < r.size; peer++ {
					if c := r.capsOf(peer); peer != r.rank && !(core.TreatLocal(mode, c) && c.SharedIPC) {
						want = true
					}
				}
				if got := r.needsHCA(); got != want {
					return fmt.Errorf("%s/%v rank %d: needsHCA = %v, per-peer scan says %v", scenario, mode, r.rank, got, want)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}
	}
}

// TestWorldCostFollowsContact: building a world is linear in its ranks, and
// running it leaves one pair record per pair that exchanged a message.
func TestWorldCostFollowsContact(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 1024-rank worlds")
	}
	opts := DefaultOptions()
	opts.Topology = peerScaleTopo
	var w *World
	newWorldBytes := func(n int) uint64 {
		d := scaleDeployment(t, n)
		least := ^uint64(0)
		for run := 0; run < 3; run++ {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			var err error
			w, err = NewWorld(d, opts)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if b := m1.TotalAlloc - m0.TotalAlloc; b < least {
				least = b
			}
		}
		return least
	}
	small, large := newWorldBytes(256), newWorldBytes(1024)
	t.Logf("NewWorld allocates %d B at 256 ranks, %d B at 1024", small, large)
	if large > 5*small {
		t.Errorf("NewWorld allocates %d B at 1024 ranks, %.1fx the %d B at 256; want <= 5x for 4x the ranks", large, float64(large)/float64(small), small)
	}

	// Recursive doubling over 1024 ranks: ten partners each.
	if err := w.RunMachine(AllreduceProgram(2, 1<<10)); err != nil {
		t.Fatal(err)
	}
	if got, want := pairCount(w), 1024*10/2; got != want {
		t.Errorf("the world holds %d pair records after a 1024-rank recursive-doubling allreduce, want %d", got, want)
	}
	for _, r := range w.ranks {
		if got := r.peers.n; got != 10 {
			t.Fatalf("rank %d holds %d peer records, want 10", r.rank, got)
		}
	}
}

// TestFirstContactFromBothEnds: A sends to B while B sends to A, so both
// ends name their pair at the same virtual instant — 64 disjoint pairs at
// once. Both ends must end up on one record.
func TestFirstContactFromBothEnds(t *testing.T) {
	const ranks = 128
	partners := map[string]func(rank int) int{
		"shm": func(rank int) int { return rank ^ 1 },                 // same container
		"hca": func(rank int) int { return (rank + ranks/2) % ranks }, // four hosts away
	}
	for name, partner := range partners {
		t.Run(name, func(t *testing.T) {
			w, err := NewWorld(scaleDeployment(t, ranks), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]*pairShared, ranks)
			err = w.Run(func(r *Rank) error {
				peer := partner(r.rank)
				out, in := []byte{byte(r.rank)}, make([]byte, 1)
				r.Compute(1000)
				sq := r.Isend(peer, 0, out)
				r.Recv(peer, 0, in)
				r.Wait(sq)
				if in[0] != byte(peer) {
					return fmt.Errorf("rank %d received %d from %d", r.rank, in[0], peer)
				}
				seen[r.rank] = r.peer(peer).ps
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank, ps := range seen {
				if ps == nil || ps != seen[partner(rank)] {
					t.Fatalf("ranks %d and %d hold different pair records (%p, %p)", rank, partner(rank), ps, seen[partner(rank)])
				}
			}
			if got := pairCount(w); got != ranks/2 {
				t.Errorf("the world holds %d pair records, want %d", got, ranks/2)
			}
		})
	}
}

// TestFinalizeDiagnosticIsDeterministic: with sends to two peers outstanding
// at MPI_Finalize, the rank named is the first one contacted, every time.
func TestFinalizeDiagnosticIsDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 20; run++ {
		opts := DefaultOptions()
		opts.Tunables.SMPEagerSize = 4 << 10
		opts.Tunables.SMPLengthQueue = 4 << 10 // room for one 3 KiB eager message
		err := testWorld(t, "1cont", 4, opts).Run(func(r *Rank) error {
			if r.rank == 0 {
				// Nobody receives these: the second to each peer stalls on a
				// full ring.
				msg := make([]byte, 3<<10)
				for _, dst := range []int{3, 3, 1, 1} {
					r.Isend(dst, 0, msg)
				}
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "MPI_Finalize with 1 sends to rank 3 outstanding") {
			t.Fatalf("run %d: err = %v, want the finalize diagnostic naming rank 3", run, err)
		}
		if run == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("run %d: %q, run 0 said %q", run, err, first)
		}
	}
}

// fullFidelityChild carries the rank count of the world a child process of
// TestFullFidelity4096 runs.
const fullFidelityChild = "CMPI_FULL_FIDELITY_CHILD"

// TestFullFidelity4096 is the world the ROADMAP's scale.go rule asks about: a
// real 4096-rank fat-tree job, machine rank bodies, inside a quarter of a GiB
// of heap. HeapSys never falls, so each world runs in a child process of the
// test binary and is measured alone, whatever ran before it. A 1024-rank and
// a 16384-rank world run beside it, under the same heap gate, so the log
// holds bytes per rank at three sizes: what grows faster than the rank count
// shows there. Other sizes run by hand:
// CMPI_FULL_FIDELITY_CHILD=8192 go test -run '^TestFullFidelity4096$' -v.
func TestFullFidelity4096(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("4096-rank world: skipped under -short and -race")
	}
	if n := os.Getenv(fullFidelityChild); n != "" {
		ranks, err := strconv.Atoi(n)
		if err != nil {
			t.Fatalf("%s=%q: %v", fullFidelityChild, n, err)
		}
		fullFidelityWorld(t, ranks)
		return
	}
	for _, ranks := range []int{1024, 4096, 16384} {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestFullFidelity4096$", "-test.v")
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", fullFidelityChild, ranks))
		out, err := cmd.CombinedOutput()
		t.Logf("%d-rank child process:\n%s", ranks, out)
		if err != nil {
			t.Errorf("%d-rank child process: %v", ranks, err)
		}
	}
}

// fullFidelityAllocKB is the TotalAlloc per rank, in KB, that the test's own
// sizes may reach (ROADMAP item 12: bytes per rank held flat). A size run by
// hand has no ceiling.
var fullFidelityAllocKB = map[int]float64{1024: 14.3, 4096: 15.4, 16384: 16.5}

// fullFidelityWorld runs TestFullFidelity4096's job at the given size and
// logs what the process allocated and holds, per rank.
func fullFidelityWorld(t *testing.T, ranks int) {
	opts := DefaultOptions()
	opts.Topology = peerScaleTopo
	w, err := NewWorld(scaleDeployment(t, ranks), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunMachine(AllreduceProgram(2, 1<<10)); err != nil {
		t.Fatal(err)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	perRank := float64(m.TotalAlloc) / float64(ranks) / 1e3
	t.Logf("%d ranks: TotalAlloc %.1f KB per rank, HeapSys %d MiB after the run (%d pair records)",
		ranks, perRank, m.HeapSys>>20, pairCount(w))
	if m.HeapSys >= 256<<20 {
		t.Errorf("HeapSys = %d MiB, want < 256", m.HeapSys>>20)
	}
	if ceil, ok := fullFidelityAllocKB[ranks]; ok && perRank > ceil {
		t.Errorf("TotalAlloc = %.1f KB per rank, want ≤ %.1f", perRank, ceil)
	}
}
