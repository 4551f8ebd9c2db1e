package mpi

import (
	"fmt"
	"runtime"
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

func TestPeerTableFindsEveryRecord(t *testing.T) {
	if size := unsafe.Sizeof(peerRec{}); size > 40 {
		t.Errorf("a peer record is %d bytes, want <= 40: at 32 ranks with every pair in contact the records must not outweigh the vectors they replace", size)
	}
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
		if 2*len(tab.recs) > len(tab.idx) {
			t.Fatalf("%d records in an index of %d slots: more than half full", len(tab.recs), len(tab.idx))
		}
		for _, seen := range ranks[:n+1] {
			if pr := tab.find(seen); pr == nil || int(pr.rank) != seen {
				t.Fatalf("after %d adds: find(%d) = %v", n+1, seen, pr)
			}
		}
	}
	for i, pr := range tab.recs {
		if int(pr.rank) != ranks[i] {
			t.Fatalf("recs[%d] is rank %d, want %d: not in first-contact order", i, pr.rank, ranks[i])
		}
	}
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
	if got, want := len(w.pairs), 1024*10/2; got != want {
		t.Errorf("the world holds %d pair records after a 1024-rank recursive-doubling allreduce, want %d", got, want)
	}
	for _, r := range w.ranks {
		if got := len(r.peers.recs); got != 10 {
			t.Fatalf("rank %d holds %d peer records, want 10", r.rank, got)
		}
	}
}

// TestFirstContactFromBothEnds: A sends to B while B sends to A, neither yet
// in the other's footprint, so the two name their pair in the same epoch from
// different groups — 64 disjoint pairs at once, four workers. Both ends must
// end up on one record (the race detector watches the rest), with the claims
// they took on it balanced.
func TestFirstContactFromBothEnds(t *testing.T) {
	claimStrict = true
	t.Cleanup(func() { claimStrict = false })
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
			w.Eng.SetWorkers(4)
			seen := make([]*pairShared, ranks)
			err = w.Run(func(r *Rank) error {
				peer := partner(r.rank)
				out, in := []byte{byte(r.rank)}, make([]byte, 1)
				// Leave the epoch MPI_Init ended in, which ran every rank in
				// one group; the next one has a group per rank.
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
				if ps.claims != [2]int{} {
					t.Errorf("pair %d<->%d ends with claims %v outstanding", ps.lo, ps.hi, ps.claims)
				}
			}
			if got := len(w.pairs); got != ranks/2 {
				t.Errorf("the world holds %d pair records, want %d", got, ranks/2)
			}
			// A rank whose send finds the peer outside its group regroups. One
			// end of every pair must; where both did, each named the pair
			// before the other's claim could merge their groups — from
			// different groups of one epoch.
			if got := w.Eng.Stats().RegroupYields; got <= ranks/2 {
				t.Errorf("%d regroup yields for %d pairs: no pair was first named by both ends at once", got, ranks/2)
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

// TestFullFidelity4096 is the world the ROADMAP's scale.go rule asks about: a
// real 4096-rank fat-tree job, machine rank bodies, inside a quarter of a GiB
// of heap.
func TestFullFidelity4096(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("4096-rank world: skipped under -short and -race")
	}
	opts := DefaultOptions()
	opts.Topology = peerScaleTopo
	w, err := NewWorld(scaleDeployment(t, 4096), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunMachine(AllreduceProgram(2, 1<<10)); err != nil {
		t.Fatal(err)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.Logf("HeapSys %d MiB after the run (%d pair records)", m.HeapSys>>20, len(w.pairs))
	if m.HeapSys >= 256<<20 {
		t.Errorf("HeapSys = %d MiB, want < 256", m.HeapSys>>20)
	}
}
