package sim

import "testing"

// emptyStore starts a test on an empty engine store and leaves one behind.
func emptyStore(t *testing.T) {
	t.Helper()
	DropStore()
	t.Cleanup(DropStore)
}

// TestRecycledEngineServesTheNext: an engine whose run is over hands its
// arrays on cleared, keeps answering Stats and Now, and the next engine of
// the same shape runs on those very arrays — its arena slabs, its event slab
// and segments, its queue keys and process list — to the same log and
// counters.
func TestRecycledEngineServesTheNext(t *testing.T) {
	emptyStore(t)
	const pairs, iters = 600, 3 // 1200 machines: two arena slabs
	log, e := runPingWorld(t, true, pairs, iters, false)
	stats, now := e.Stats(), e.Now()
	slabs := map[*Proc]bool{}
	for _, a := range e.arena {
		slabs[&a[:1][0]] = true
	}
	first, keys, procs := e.slab.first, &e.q.keys[:1][0], &e.procs[:1][0]
	e.Recycle()
	if e.Stats() != stats || e.Now() != now {
		t.Errorf("after Recycle: Stats %+v and Now %v, want %+v and %v", e.Stats(), e.Now(), stats, now)
	}
	for _, a := range store.arena {
		for i, p := range a[:cap(a)] {
			if p != (Proc{}) {
				t.Fatalf("arena slot %d was handed on holding %q", i, p.name)
			}
		}
	}
	empty := func(evs []event) bool {
		for _, ev := range evs {
			if ev.fnA != nil || ev.arg != nil {
				return false
			}
		}
		return true
	}
	for _, s := range store.slabs {
		if s.next != 0 || len(s.free) != 0 || !empty(s.first[:]) {
			t.Fatalf("an event slab was handed on with %d slots out, %d free", s.next, len(s.free))
		}
		for k, seg := range s.segs {
			if !empty(seg) {
				t.Fatalf("segment %d was handed on holding an event", k)
			}
		}
	}
	for _, l := range store.keys {
		if len(l) != 0 || l[:cap(l)][cap(l)-1] != (hkey{}) {
			t.Fatal("a key array was handed on not empty or not cleared")
		}
	}
	for _, l := range store.procs {
		if len(l) != 0 || l[:cap(l)][0] != nil {
			t.Fatal("a process list was handed on not empty or not cleared")
		}
	}

	again, next := runPingWorld(t, true, pairs, iters, false)
	if again != log || next.Stats() != stats || next.Now() != now {
		t.Fatalf("the world on recycled arrays ran differently: Stats %+v, want %+v", next.Stats(), stats)
	}
	for _, a := range next.arena {
		if !slabs[&a[:1][0]] {
			t.Error("the next engine made an arena slab the store had")
		}
	}
	if next.slab.first != first || &next.q.keys[:1][0] != keys || &next.procs[:1][0] != procs {
		t.Error("the next engine made an event slab, key array or process list the store had")
	}
}

// The store is bounded: engines that end faster than new ones take their
// arrays leave at most storeEngines of each kind and storeArena arena slabs.
func TestEngineStoreIsBounded(t *testing.T) {
	emptyStore(t)
	var done []*Engine
	for range 2 * storeEngines {
		_, e := runPingWorld(t, true, 600, 1, false)
		done = append(done, e)
	}
	for _, e := range done {
		e.Recycle()
	}
	if len(store.slabs) != storeEngines || len(store.keys) != storeEngines || len(store.procs) != storeEngines || len(store.arena) != storeArena {
		t.Errorf("the store holds %d slabs, %d key arrays, %d process lists and %d arena slabs; want %d, %d, %d and %d",
			len(store.slabs), len(store.keys), len(store.procs), len(store.arena), storeEngines, storeEngines, storeEngines, storeArena)
	}
}

// A run that stops with events still queued hands on a slab whose pending
// slots held them: Recycle clears those too.
func TestRecycleClearsPendingEvents(t *testing.T) {
	emptyStore(t)
	e := NewEngine()
	e.At(10, e.Stop)
	for i := range 40 {
		e.At(Time(20+i), func() { t.Error("an event past the stop ran") })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Recycle()
	s := takeSlab()
	for slot := range int32(48) {
		if ev := s.at(slot); ev.fnA != nil || ev.arg != nil {
			t.Fatalf("slot %d was handed on holding a pending event", slot)
		}
	}
}
