package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/fault"
)

// genDeployment builds a seeded deployment from the cluster builders: Native,
// Containers (namespace sharing and hostnames drawn at random), the two
// single-pair builders, and Shrink or Respawn of any of them. The containers
// are privileged, so every world gets through MPI_Init.
func genDeployment(t *testing.T, rng *rand.Rand) *cluster.Deployment {
	t.Helper()
	hosts := 1 + rng.Intn(4)
	spec := cluster.Spec{Hosts: hosts, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	opts := cluster.ScenarioOpts{
		Privileged:   true,
		ShareHostIPC: rng.Intn(2) == 0,
		ShareHostPID: rng.Intn(2) == 0,
		ShareHostUTS: rng.Intn(4) == 0,
	}
	var d *cluster.Deployment
	var err error
	switch rng.Intn(4) {
	case 0:
		d, err = cluster.Native(cluster.MustNew(spec), hosts*(1+rng.Intn(4)))
	case 1:
		perHost := 1 + rng.Intn(4)
		d, err = cluster.Containers(cluster.MustNew(spec), perHost, hosts*perHost*(1+rng.Intn(4)), opts)
	case 2:
		d, err = cluster.TwoContainersSockets(cluster.MustNew(spec), rng.Intn(2) == 0, opts)
	default:
		d, err = cluster.NativePair(cluster.MustNew(spec), rng.Intn(2) == 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() < 3 || rng.Intn(3) == 0 {
		return d
	}
	dead := []int{rng.Intn(d.Size())}
	if rng.Intn(2) == 0 {
		if nd, _, err := cluster.Shrink(d, dead); err == nil {
			return nd
		}
	} else if nd, _, err := cluster.Respawn(d, dead); err == nil {
		return nd
	}
	return d
}

// TestDetectorViewProperties runs 200 generated deployments in
// locality-aware mode, a third of them with the detector's segment failing
// on host 0 (those ranks fall back to hostnames), and checks at every rank:
//
//   - the locality a rank holds, scanned once per container list and shared
//     (core.Snapshots), equals the rank's own scan of the list, and is zero
//     where the detector is off;
//   - a detected co-resident shares the rank's IPC namespace. The list
//     lives in one IPC namespace, so DetectedLocal implies SharedIPC, and
//     core.TreatLocal needs no SharedIPC conjunct of its own (SelectPath
//     still checks it, for the pair's ring may have died).
func TestDetectorViewProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 200; i++ {
		d := genDeployment(t, rng)
		opts := DefaultOptions()
		fallback := i%3 == 0
		if fallback {
			opts.FaultPlan = fault.NewPlan().ShmAttachFail(0, 0, 0, core.LocalitySegmentPrefix)
		}
		w, err := NewWorld(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(r *Rank) error {
			if r.det == nil {
				if !reflect.DeepEqual(r.loc, core.Locality{}) {
					return fmt.Errorf("rank %d has no detector but holds %+v", r.rank, r.loc)
				}
			} else if own := r.det.Snapshot(); !reflect.DeepEqual(r.loc, own) {
				return fmt.Errorf("rank %d holds %+v, its own scan reads %+v", r.rank, r.loc, own)
			}
			for peer := 0; peer < r.size; peer++ {
				if c := r.capsOf(peer); peer != r.rank && c.DetectedLocal && !c.SharedIPC {
					return fmt.Errorf("rank %d detects rank %d without a shared IPC namespace", r.rank, peer)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("deployment %d (%s, %d ranks, detector fallback %v): %v", i, d.Scenario, d.Size(), fallback, err)
		}
	}
}

// TestDetectorFallbackKeepsHostnameLocality: two native ranks of one host in
// locality-aware mode whose detector segment cannot be attached fall back to
// hostname locality (Rank.initPre), and one hostname is enough: every message
// takes SHM or CMA, none the HCA loopback.
func TestDetectorFallbackKeepsHostnameLocality(t *testing.T) {
	opts := DefaultOptions()
	opts.Profile = true
	opts.FaultPlan = fault.NewPlan().ShmAttachFail(fault.Any, 0, 0, core.LocalitySegmentPrefix)
	w := testWorld(t, "native", 2, opts)
	if err := w.Run(allreduceBody(t, 2)); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := w.Prof.TotalFaults().DetectorFallbacks; got != 2 {
		t.Errorf("DetectorFallbacks = %d, want 2 (every rank)", got)
	}
	ch := w.Prof.TotalChannels()
	if ch.Ops[core.ChannelHCA] != 0 || ch.Ops[core.ChannelSHM]+ch.Ops[core.ChannelCMA] == 0 {
		t.Errorf("same-hostname ranks without a detector must keep to SHM and CMA: %+v", ch.Ops)
	}
}

// TestRingPacketCountEndsAtZero: every packet pushed toward a rank is
// consumed, or dropped when a clean world ends, so the count progress()
// consults (Rank.inbound) is zero at the end — also when messages nobody
// received were left in the rings.
func TestRingPacketCountEndsAtZero(t *testing.T) {
	for _, unreceived := range []bool{false, true} {
		w := testWorld(t, "2cont", 4, DefaultOptions())
		err := w.Run(func(r *Rank) error {
			out, in := make([]byte, 20000), make([]byte, 20000)
			peer := r.rank ^ 2 // the other container
			for _, n := range []int{0, 100, 4000, 20000} {
				req := r.Isend(peer, n, out[:n])
				r.Recv(peer, n, in[:n])
				r.Wait(req)
			}
			if unreceived && r.rank == 0 {
				r.Wait(r.Isend(peer, 7, out[:100]))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range w.ranks {
			if r.inbound != 0 {
				t.Errorf("unreceived %v: rank %d ends with %d ring packets counted", unreceived, r.rank, r.inbound)
			}
		}
	}
}
