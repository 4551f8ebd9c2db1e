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

// TestStateSizes holds the bytes a world spends on itself, per rank, per
// named pair and per message in flight: each ceiling is the size the struct
// has, a multiple of its allocation class. A World and a Rank, the objects
// above 512 bytes, also carry the allocator's 8-byte header, so 888 bytes
// fill the 896-byte class and 896 would take 1024, and 1144 bytes fill the
// 1152-byte class and 1152 would take 1280. A field that grows one of these
// shows here before it shows in bytes per rank (TestFullFidelity4096) or in a
// benchmark's alloc_mb.
func TestStateSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"World", unsafe.Sizeof(World{}), 888},
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

// A table whose first index came with room to spare, as an array an earlier
// world's table left in the depot does, grows in place up to that room: the
// same array, rehashed, with every record found after each growth. Past the
// room it moves to an array of the next size.
func TestPeerTableGrowsInPlace(t *testing.T) {
	var tab peerTable
	tab.idx = make([]*peerRec, 16, 128) // as core.TakeArray hands out a grown array
	room := unsafe.SliceData(tab.idx)
	recs := make([]peerRec, 113)
	for n := range recs {
		recs[n].rank = int32(4095 - 64*n%4096 - n/64)
		tab.add(&recs[n])
		if n < 112 && unsafe.SliceData(tab.idx) != room {
			t.Fatalf("after %d adds the index of %d slots moved to another array", n+1, len(tab.idx))
		}
		for i := range recs[:n+1] {
			if pr := tab.find(int(recs[i].rank)); pr != &recs[i] {
				t.Fatalf("after %d adds: find(%d) = %v", n+1, recs[i].rank, pr)
			}
		}
	}
	if len(tab.idx) != 256 || unsafe.SliceData(tab.idx) == room {
		t.Fatalf("113 records in an index of %d slots on the first array", len(tab.idx))
	}
}

// pairCount is the number of pair records a world holds: those its ranks'
// peer records share, each counted at its lower rank or, where that rank
// never named the pair, at the higher. A world that ends cleanly hands its
// records to the depot (World.recycle), so a test counts them as the last
// rank's body ends (countPairs).
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

// countPairs wraps the programs mk builds for w so that *pairs is
// pairCount(w) once the last rank's body has ended: after the last first
// contact, before the drain.
func countPairs(w *World, pairs *int, mk func(rank int) Program) func(rank int) Program {
	return atLastEnd(w, mk, func() { *pairs = pairCount(w) })
}

// atLastEnd wraps the programs mk builds for w so that f runs once the last
// rank's body has ended, while the world still holds its ranks.
func atLastEnd(w *World, mk func(rank int) Program, f func()) func(rank int) Program {
	ended := 0
	return func(rank int) Program {
		return &endHook{Program: mk(rank), end: func() {
			if ended++; ended == w.Size() {
				f()
			}
		}}
	}
}

// endHook is a Program that calls end when its body is done.
type endHook struct {
	Program
	end func()
}

func (h *endHook) Step(r *Rank) sim.Flow {
	f := h.Program.Step(r)
	if f == sim.Done {
		h.end()
	}
	return f
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
	// From an empty depot every time: a world takes the ranks an earlier one
	// handed on, as many as the depot has.
	newWorldBytes := func(n int) uint64 {
		d := scaleDeployment(t, n)
		least := ^uint64(0)
		for run := 0; run < 3; run++ {
			var m0, m1 runtime.MemStats
			core.DropDepot()
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
	var pairs int
	records := make([]int, w.Size())
	err := w.RunMachine(atLastEnd(w, AllreduceProgram(2, 1<<10), func() {
		pairs = pairCount(w)
		for _, r := range w.ranks {
			records[r.rank] = r.peers.n
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pairs, 1024*10/2; got != want {
		t.Errorf("the world holds %d pair records after a 1024-rank recursive-doubling allreduce, want %d", got, want)
	}
	for rank, got := range records {
		if got != 10 {
			t.Fatalf("rank %d holds %d peer records, want 10", rank, got)
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
			ended, pairs := 0, 0
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
				if ended++; ended == ranks {
					pairs = pairCount(w)
				}
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
			if got := pairs; got != ranks/2 {
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
	records := w.totals.peerRecs
	t.Logf("%d ranks: TotalAlloc %.1f KB per rank, HeapSys %d MiB after the run (%d peer records)",
		ranks, perRank, m.HeapSys>>20, records)
	if m.HeapSys >= 256<<20 {
		t.Errorf("HeapSys = %d MiB, want < 256", m.HeapSys>>20)
	}
	if ceil, ok := fullFidelityAllocKB[ranks]; ok && perRank > ceil {
		t.Errorf("TotalAlloc = %.1f KB per rank, want ≤ %.1f", perRank, ceil)
	}
}
