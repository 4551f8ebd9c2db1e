package sim_test

import (
	"maps"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/sim"
)

// engineKind is the depot's list of engine arrays, the one mpi's worlds give
// to and take from.
var engineKind = core.NewKind[*sim.Arrays]()

// strictDepot starts a test on an empty depot under poolStrict, so that a
// take checks every array it hands out is cleared, and leaves an empty one
// behind.
func strictDepot(t *testing.T) {
	t.Helper()
	core.DropDepot()
	was := core.SetPoolStrict(true)
	t.Cleanup(func() {
		core.SetPoolStrict(was)
		core.DropDepot()
	})
}

// TestRecycledEngineServesTheNext: an engine whose run is over hands its
// arrays on through the depot, cleared — the strict take checks every slot of
// each — keeps answering Stats and Now, and the next engine of the same shape
// runs on those very arrays (its arena slabs, its event slab and segments,
// its queue keys and process list) to the same log and counters.
func TestRecycledEngineServesTheNext(t *testing.T) {
	strictDepot(t)
	const pairs, iters = 600, 3 // 1200 machines: two arena slabs
	log, e := sim.RunPingWorldOn(t, sim.NewEngine(), pairs, iters)
	stats, now := e.Stats(), e.Now()
	addrs := sim.ArrayAddrs(e)
	var dr core.Drain
	engineKind.Give(&dr, e.Recycle())
	if e.Stats() != stats || e.Now() != now {
		t.Errorf("after Recycle: Stats %+v and Now %v, want %+v and %v", e.Stats(), e.Now(), stats, now)
	}
	a, ok := engineKind.Take()
	if !ok {
		t.Fatal("the depot did not keep the engine's arrays")
	}
	again, next := sim.RunPingWorldOn(t, sim.NewEngineOn(a), pairs, iters)
	if again != log || next.Stats() != stats || next.Now() != now {
		t.Fatalf("the world on recycled arrays ran differently: Stats %+v, want %+v", next.Stats(), stats)
	}
	if got := sim.ArrayAddrs(next); !maps.Equal(got, addrs) {
		t.Errorf("the next engine ran on %d arrays, %d of them the last engine's; want all %d", len(got), common(got, addrs), len(addrs))
	}
}

// common counts the keys a and b share.
func common(a, b map[any]bool) int {
	n := 0
	for k := range a {
		if b[k] {
			n++
		}
	}
	return n
}

// A slot of any array the engine hands on that is written after Recycle
// makes the strict take panic: the depot's zero check covers every one of
// them, segments and arena slabs included.
func TestRecycledEngineArraysAreChecked(t *testing.T) {
	strictDepot(t)
	for _, part := range sim.ArrayParts {
		_, e := sim.RunPingWorldOn(t, sim.NewEngine(), 600, 1)
		a := e.Recycle()
		var dr core.Drain
		engineKind.Give(&dr, a)
		a.Scribble(part)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a take of engine arrays whose %s was written did not panic", part)
				}
			}()
			engineKind.Take()
		}()
	}
}

// A run that stops with events still queued hands on a slab whose pending
// slots held them: Recycle clears those too, or the strict take panics.
func TestRecycleClearsPendingEvents(t *testing.T) {
	strictDepot(t)
	e := sim.NewEngine()
	e.At(10, e.Stop)
	for i := range 40 {
		e.At(sim.Time(20+i), func() { t.Error("an event past the stop ran") })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var dr core.Drain
	engineKind.Give(&dr, e.Recycle())
	a, ok := engineKind.Take()
	if !ok {
		t.Fatal("the depot did not keep the engine's arrays")
	}
	next := sim.NewEngineOn(a)
	ran := false
	next.At(5, func() { ran = true })
	if err := next.Run(); err != nil || !ran {
		t.Fatalf("the next engine ran %v, err %v", ran, err)
	}
}
