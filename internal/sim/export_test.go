package sim

import "testing"

// What the tests of package sim_test, which import core (core imports sim),
// need of an engine's insides.

// RunPingWorldOn runs runPingWorld's machine world of nPairs pairs on e.
func RunPingWorldOn(t *testing.T, e *Engine, nPairs, iters int) (string, *Engine) {
	t.Helper()
	return runPingWorldOn(t, e, true, nPairs, iters, false)
}

// ArrayAddrs names the arrays an engine runs on by the address of their first
// slot: its arena slabs, its event slab's first segment and the others, its
// queue's keys and its process list.
func ArrayAddrs(e *Engine) map[any]bool {
	addrs := map[any]bool{e.slab.first: true, &e.q.keys[:1][0]: true, &e.procs[:1][0]: true}
	for _, a := range e.arena {
		addrs[&a[:1][0]] = true
	}
	if e.slab.segs != nil {
		for _, seg := range e.slab.segs {
			if seg != nil {
				addrs[&seg[:1][0]] = true
			}
		}
	}
	return addrs
}

// ArrayParts lists the arrays an engine hands out (Recycle), for Scribble.
var ArrayParts = []string{"arena", "first segment", "segment", "free slots", "keys", "procs"}

// Scribble writes into one slot of the array part names, as a stale alias of
// an engine whose run is over would.
func (a *Arrays) Scribble(part string) {
	switch part {
	case "arena":
		a.arena[0][:1][0].id = 1
	case "first segment":
		a.slab.first[0].arg = 1
	case "segment":
		a.slab.segs[1][:1][0].arg = 1
	case "free slots":
		a.slab.free[:1][0] = 1
	case "keys":
		a.keys[:1][0].seq = 1
	case "procs":
		a.procs[:1][0] = new(Proc)
	default:
		panic("sim: no array part " + part)
	}
}
