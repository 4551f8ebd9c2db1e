package sim

import "fmt"

// Res names one schedulable resource for conservative epoch dispatch: a
// simulated process, a fabric port, or any other piece of mutable state that
// events can touch. Resources are small dense integers assigned by the layer
// above (the MPI runtime maps ranks and hosts onto them); the engine only
// unions them to partition each epoch's events into independent groups.
//
// Res 0 is Global, the catch-all resource: events and processes that do not
// declare a footprint are treated as touching everything and serialize with
// each other (and with anything else that names Global). A world that never
// declares footprints is therefore one group per epoch, dispatched in global
// (time, sequence) order.
type Res int32

// Global is the catch-all resource (see Res).
const Global Res = 0

// FootprintFn reports the resources a process can touch if resumed now. It
// is called in scheduler context at epoch formation (never while process code
// runs), so it may freely read any simulation state. Appending to
// the passed slice and returning it avoids per-epoch allocations.
//
// Returning an empty slice or including Global serializes the process with
// the global group. A nil FootprintFn is equivalent to returning {Global}.
type FootprintFn func(buf []Res) []Res

// resEntry is one row of the engine's dense per-resource table, indexed by
// Res. A row is live only while stamp equals the engine's current epoch id,
// so a new epoch invalidates the whole table by incrementing the id — nothing
// is cleared. parent is the formation-time union-find link; group is the
// epoch group owning the resource, read (never written) during execution.
type resEntry struct {
	stamp  uint64
	parent Res
	group  *execGroup
}

// checkRes rejects a negative resource id: ids index the dense table, and a
// negative one is a caller bug that must fail the same way on every run.
func checkRes(r Res, where string) {
	if r < 0 {
		panic(fmt.Sprintf("sim: negative resource id %d in %s", r, where))
	}
}
