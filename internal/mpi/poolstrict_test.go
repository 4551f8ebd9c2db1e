package mpi

import (
	"fmt"
	"strings"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/invariant"
)

// The poolStrict hook (world.go): what it keeps unchanged and what trips it.

// strictPools turns poolStrict on for one test.
func strictPools(t *testing.T) {
	t.Helper()
	was := core.SetPoolStrict(true)
	t.Cleanup(func() { core.SetPoolStrict(was) })
}

// TestPoolStrictKeepsPinnedResults holds the pinned traces that would show a
// stale alias — the first-contact exchanges, the fault-plan world — to their
// pins with every depot buffer poisoned, the conservation law asserted at the
// end of every clean world and released handles poisoned, and reruns the randomized windows with content checks,
// the determinism property and the second-world test under the hook.
func TestPoolStrictKeepsPinnedResults(t *testing.T) {
	strict := invariant.Point{PoolStrict: true}
	t.Run("first-contact-traces", func(t *testing.T) { checkPinned(t, firstContactRows(), strict) })
	t.Run("fault-trace", func(t *testing.T) { checkPinned(t, faultTraceRows(), strict) })
	strictPools(t)
	t.Run("stress", TestStressRandomizedSchedules)
	t.Run("determinism", TestStressDeterminismProperty)
	t.Run("second-world", TestDepotServesTheSecondWorld)
}

// TestRankAndDeviceShareOnePool: the HCA a rank opens takes its wire buffers
// from the rank's pool, so SimStats sums the rank pools and the world's drain
// hands each pool over once. A one-way HCA stream leaves the sender's pool
// with buffers lent out at the end, so a pool drained twice would count them
// twice and break the conservation law poolStrict asserts. The device and
// the rank go to the depot with the world, so each rank checks its own device
// and takes its pool's counters before its body ends.
func TestRankAndDeviceShareOnePool(t *testing.T) {
	strictPools(t)
	w := testWorld(t, "2host", 2, DefaultOptions())
	const window = 8
	var ends [2]core.PoolCounters
	func() {
		defer func() {
			if v := recover(); v != nil {
				t.Fatalf("World.Run under poolStrict: %v", v)
			}
		}()
		if err := w.Run(func(r *Rank) error {
			buf := make([]byte, 256)
			reqs := make([]*Request, window)
			for i := range reqs {
				if r.Rank() == 0 {
					reqs[i] = r.Isend(1, i, buf)
				} else {
					reqs[i] = r.Irecv(0, i, buf)
				}
			}
			r.WaitAll(reqs...)
			r.Release(reqs...)
			// A QP made now on the rank's device shows where its wire
			// buffers come from. Nothing sends this one: home takes it back.
			before := r.pools.buf.Counters().Gets
			wire := r.dev.CreateQP(r.cq, r.cq).WireBuf(100)
			if got := r.pools.buf.Counters().Gets - before; got != 1 {
				t.Errorf("rank %d: a wire buffer of its device took %d requests of the rank's pool, want 1", r.rank, got)
			}
			r.pools.buf.Reclaim(wire)
			ends[r.rank] = r.pools.buf.Counters()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}()
	var sum core.PoolCounters
	for _, c := range ends {
		sum.Add(c)
	}
	if got := w.SimStats().BufPool; got != sum {
		t.Errorf("SimStats().BufPool = %+v, want the rank pools' sum %+v", got, sum)
	}
}

// TestPoolStrictTripsOnDoublePut: a buffer put twice sits on a free list
// twice; without the check two operations of some later world would share it.
func TestPoolStrictTripsOnDoublePut(t *testing.T) {
	strictPools(t)
	w := testWorld(t, "2cont", 2, DefaultOptions())
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "twice") {
			t.Errorf("World.Run after a double put: recovered %v, want the depot's panic", v)
		}
	}()
	w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			buf := r.AllocMem(100)
			r.FreeMem(buf)
			r.FreeMem(buf)
		}
		return nil
	})
}

// TestPoolStrictTripsOnAKeptRank: a *Rank is valid until its world's Run
// returns, and a world that ended cleanly hands its ranks, zeroed, to the
// next. Under poolStrict the next world takes them back clean; one that a
// body kept and wrote through after Run trips the depot's check there.
func TestPoolStrictTripsOnAKeptRank(t *testing.T) {
	strictPools(t)
	var kept *Rank
	run := func(keep bool) error {
		w := testWorld(t, "2cont", 2, DefaultOptions())
		return w.Run(func(r *Rank) error {
			if keep && r.Rank() == 1 {
				kept = r
			}
			r.Barrier()
			return nil
		})
	}
	for i, keep := range []bool{false, false, true} {
		if err := run(keep); err != nil {
			t.Fatalf("world %d: %v", i, err)
		}
	}
	kept.collSeq = 7 // the body's handle, written after its world ended
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "*mpi.Rank from the depot was written") {
			t.Errorf("the world after a rank was written: recovered %v, want the depot's panic", v)
		}
	}()
	run(false)
}

// TestPoolStrictTripsOnLostReturn: a direction buffer nobody returned breaks
// the conservation law of a world that otherwise ended cleanly.
func TestPoolStrictTripsOnLostReturn(t *testing.T) {
	strictPools(t)
	w := testWorld(t, "2cont", 2, DefaultOptions())
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "unaccounted") {
			t.Errorf("World.Run with a buffer lent and never returned: recovered %v, want the conservation panic", v)
		}
	}()
	w.Run(func(r *Rank) error {
		buf := make([]byte, 64)
		if r.Rank() == 0 {
			r.Send(1, 0, buf)
			r.peer(1).ps.out(0).snaps.Get(&r.pools.buf, 64)
		} else {
			r.Recv(0, 0, buf)
		}
		return nil
	})
}

// TestPoolStrictHoldsForUnreceivedMessages: a world whose rank 0 posts one
// send that rank 1 never receives, on each channel, ends cleanly and keeps
// the conservation law. What the message still holds — a CQ entry's bounce
// buffer, a ring packet's payload snapshot — goes back where rank 1 would
// have put it on receipt.
func TestPoolStrictHoldsForUnreceivedMessages(t *testing.T) {
	for _, tc := range []struct {
		name     string
		scenario string
		bytes    int
	}{
		{"hca-eager", "2host", 64},
		{"shm-eager", "native", 64},
		{"hca-rndv", "2host", 64 << 10},
		{"cma-rndv", "native", 64 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			strictPools(t)
			w := testWorld(t, tc.scenario, 2, DefaultOptions())
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("World.Run under poolStrict: %v", v)
				}
			}()
			if err := w.Run(func(r *Rank) error {
				if r.Rank() == 0 {
					r.Isend(1, 0, make([]byte, tc.bytes))
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
