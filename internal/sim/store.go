package sim

import "sync"

// An engine's arrays outlive its run. A sweep or a benchmark builds hundreds
// of engines of the same shape one after another, and each used to allocate
// its machine arena, event slab, queue and process list anew. An engine whose
// run is over and whose processes nobody reads again hands them, cleared, to
// the process's store (Engine.Recycle), and the next engine takes them where
// it would have allocated: Grow its process list and queue keys, arenaAlloc
// its arena slabs, and carve, on its first slot, a whole event slab with the
// segments it held. The store is bounded: what does not fit goes to the
// garbage collector. None of it is observable: an array from the store is
// cleared, and the engine gives every slot and index out in the same order.

const (
	// storeArena bounds the arena slabs the store holds: a 16384-rank
	// machine world's worth.
	storeArena = 16
	// storeEngines bounds the event slabs, key arrays and process lists the
	// store holds: a few engines' worth, for worlds run side by side.
	storeEngines = 4
)

// store holds what engines whose run is over left, for the next ones.
var store struct {
	sync.Mutex
	arena [][]Proc
	slabs []slab
	keys  [][]hkey
	procs [][]*Proc
}

// Recycle hands the engine's arrays to the process's store, cleared: its
// machine arena, its event slab with its segments and free-slot list, its
// queue's keys and its process list. Call it only once the run is over and
// nothing reads the engine's processes again — a machine process lives in the
// arena, whose slots the next engine hands out anew. Stats and Now keep
// answering; the engine runs nothing more.
func (e *Engine) Recycle() {
	// A popped event's slot was cleared as it left (vacate): only the events
	// a stopped run left pending still hold anything. The arrays' slots past
	// their length were never written since they were last cleared.
	s := e.slab
	for _, k := range e.q.keys {
		*s.at(k.slot) = event{}
	}
	s.next, s.free = 0, s.free[:0]
	clear(e.q.keys[:cap(e.q.keys)])
	clear(e.procs)
	for _, a := range e.arena {
		clear(a)
	}
	store.Lock()
	if s.first != nil && len(store.slabs) < storeEngines {
		store.slabs = append(store.slabs, s)
	}
	if cap(e.q.keys) > 0 && len(store.keys) < storeEngines {
		store.keys = append(store.keys, e.q.keys[:0])
	}
	if cap(e.procs) > 0 && len(store.procs) < storeEngines {
		store.procs = append(store.procs, e.procs[:0])
	}
	for _, a := range e.arena {
		if len(store.arena) < storeArena {
			store.arena = append(store.arena, a[:0])
		}
	}
	store.Unlock()
	e.slab, e.q.keys, e.procs, e.arena, e.quiesce = slab{}, nil, nil, nil, nil
}

// pop removes the newest entry of list and returns it; the zero value when
// list is empty. The store lock is held.
func pop[E any](list *[]E) (x E) {
	l := *list
	n := len(l)
	if n == 0 {
		return x
	}
	x = l[n-1]
	l[n-1] = *new(E)
	*list = l[:n-1]
	return x
}

// takeArrays gives an engine a process list and a key array from the store,
// where it has none yet.
func (e *Engine) takeArrays() {
	if cap(e.procs) > 0 && cap(e.q.keys) > 0 {
		return
	}
	store.Lock()
	if cap(e.procs) == 0 {
		e.procs = pop(&store.procs)
	}
	if cap(e.q.keys) == 0 {
		e.q.keys = pop(&store.keys)
	}
	store.Unlock()
}

// takeArena returns an empty arena slab from the store, or nil.
func takeArena() []Proc {
	store.Lock()
	defer store.Unlock()
	return pop(&store.arena)
}

// takeSlab returns an event slab from the store, with its segments and an
// empty free-slot list, or the zero slab.
func takeSlab() slab {
	store.Lock()
	defer store.Unlock()
	return pop(&store.slabs)
}

// DropStore leaves everything the store holds to the garbage collector: the
// state of a process that has run no engine yet. Only for the benchmarks and
// tests that compare a cold start with a warm one, as core.DropDepot is.
func DropStore() {
	store.Lock()
	store.arena, store.slabs, store.keys, store.procs = nil, nil, nil, nil
	store.Unlock()
}
