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
// end of every clean world and released handles poisoned, at widths 1/2/4/8,
// and reruns the randomized windows with content checks,
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
			r.peer(1).ps.ring.out(0).snaps.Get(&r.pools.buf, 64)
		} else {
			r.Recv(0, 0, buf)
		}
		return nil
	})
}
