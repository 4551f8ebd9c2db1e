package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// Conservative epoch scheduling (PDES-style grouping). This is the engine's
// only dispatch loop; every world, whatever it declares, runs it, and one
// goroutine — Run's caller — runs all of it:
//
//  1. Formation (scheduler context): walk every pending event in (t, seq)
//     order, ask each event what resources it touches — a process event pulls
//     the process's FootprintFn, a callback event carries its own tags, and
//     anything undeclared touches Global — and union the resources into
//     causally independent groups. Union-find links and resource owners live
//     in a dense table indexed by Res and validated by an epoch stamp, so a
//     new epoch clears nothing and a routing lookup is one load. Until the
//     world declares something (Engine.declared) there is nothing to ask:
//     the one set is Global. Each event's 24-byte key then moves to its
//     group's queue; the payload stays in its slot of the engine's slab.
//  2. Execution: the groups dispatch one after another in index order
//     (dispatch), each popping its own private queue in (t, seq) order and
//     resuming only its own processes: each goroutine-backed process as a
//     coroutine, each machine stepped in place. A group keeps its own clock
//     and dispatches at most epochQuota events, so the partition is
//     refreshed as communication patterns shift. An epoch that forms a
//     single group — every epoch of a world that declares nothing —
//     dispatches on the global queue in place: no sort, no move, and
//     Engine.Now follows the group's clock event by event. A popped event's
//     slot returns to the engine's slab at once, and a new event takes one
//     from it.
//  3. Commit (after the last group): the keys of leftover and spilled events
//     return to the global queue in deterministic (t, group, local seq)
//     order with freshly assigned global sequence numbers, group counters
//     merge into the engine's Stats, and the earliest failure (by virtual
//     time, then group index) wins. No slot number orders anything.
//
// Groups, their key queues and buffers, the slab, the table and the commit
// scratch are engine-owned and recycled: at a world's working size an epoch
// allocates nothing. No group owns a payload: every event of an engine is one
// slot of its slab.
//
// Soundness rests on the footprint contract: while a process runs inside a
// group it may only touch state covered by the resources its FootprintFn
// declared at formation. A process that needs a resource its group does not
// own must call YieldRegroup, which reschedules it into the next epoch where
// its (now wider) footprint merges the groups.

// epochQuota bounds how many events one group dispatches per epoch. Small
// enough that group structure tracks shifting communication patterns (a
// process that yielded to claim a new resource waits at most one quota's
// worth of events), large enough to amortize formation cost.
const epochQuota = 256

// execGroup is one causally independent partition of an epoch's events.
// Groups are engine-owned and recycled: epoch n's group i reuses the object,
// key queue, spill and emission buffers of epoch n-1's group i.
type execGroup struct {
	eng *Engine
	idx int
	// q is the queue the group dispatches from: its own, or — when the epoch
	// formed a single group — the engine's global queue, in place.
	q   *eventQueue
	own eventQueue
	now Time
	// seq is the group-local tie-break counter for events pushed during
	// execution. It starts above every formation-assigned sequence number, so
	// within a group (t, seq) order is causal order.
	seq uint64
	// quota is the remaining event budget this epoch.
	quota int
	// stats accumulates this group's scheduler counters, merged at commit.
	stats Stats
	// spill holds the keys of events (stored in the slab, not queued) that
	// must not dispatch before the next epoch: YieldRegroup reschedules and
	// the wakes carried over behind them.
	spill []hkey
	// emits buffers observer payloads (Proc.Emit/Engine.EmitAt) produced
	// during this group's execution; commitEpoch flushes them to the engine's
	// emitter in (t, group index, seq) order. Entries share the group-local
	// seq counter, so within a group emission order is causal order.
	emits []emitRec
	// failure is the group's first failure and the virtual time it happened.
	failure error
	failAt  Time
}

// emitRec is one buffered emission: the payload plus the (t, seq) key that
// orders it deterministically at the epoch barrier.
type emitRec struct {
	t       Time
	seq     uint64
	payload any
}

// pop removes the group's earliest event, vacating its slot.
func (g *execGroup) pop() (hkey, event) {
	k := g.q.pop()
	return k, g.eng.slab.vacate(k.slot)
}

// pushLocal enqueues an event produced during this group's execution; k
// carries its flags.
func (g *execGroup) pushLocal(t Time, k hkey, ev event) uint64 {
	g.seq++
	k.t, k.seq, k.slot = t, g.seq, g.eng.slab.put(ev)
	g.q.push(k)
	return g.seq
}

// spillLocal parks an event until commit re-queues it for the next epoch.
func (g *execGroup) spillLocal(k hkey, ev event) {
	k.slot = g.eng.slab.put(ev)
	g.spill = append(g.spill, k)
}

// fail records the group's first failure.
func (g *execGroup) fail(err error) {
	if g.failure == nil {
		g.failure = err
		g.failAt = g.now
	}
}

// dispatch pops the group's events in (t, seq) order until the local heap
// drains, the quota is spent, or the engine stops. Whatever remains queued
// carries over to the next epoch via commit. Callbacks and machines run
// in place; a live wake for a goroutine-backed process resumes its coroutine
// and gets control back when the body blocks, returns or panics — one
// coroutine round trip, no channel and no trip through the Go scheduler.
//
// Background alarms wait their turn behind work the queue cannot show: once
// only alarms remain, the group stops if a process it spilled (YieldRegroup)
// or a quiesce callback is pending, because both run at an earlier virtual
// time than any alarm — the spill next epoch, the callback at the drain.
// Alarms are untagged, so the group that holds them owns Global, as must
// whoever called AtQuiesce.
func (g *execGroup) dispatch() {
	e := g.eng
	q := g.q
	for g.quota > 0 && !e.stopped {
		if n := q.len(); n == q.bg && (n == 0 || len(g.spill) > 0 || len(e.quiesce) > 0) {
			break
		}
		k, ev := g.pop()
		g.quota--
		g.now = k.t
		g.stats.Dispatched++
		if ev.isCallback() {
			g.stats.Callbacks++
			ev.fnA(ev.arg)
			continue
		}
		p := ev.proc()
		if p != nil && !k.timer && k.t == p.lastWakeAt {
			p.lastWakeLive = false // the coalescing anchor has left the queue
		}
		if p == nil || !p.wantsWake(k.timer, k.seq) {
			if p != nil && !k.timer && p.state == stateScheduled && p.regroupEpoch == e.epochID {
				// The target yielded out of this epoch (YieldRegroup): its
				// resume timer fires only next epoch and may predate this
				// wake. Carry the wake over so commit re-orders it after the
				// timer instead of losing the condition it signals.
				g.spillLocal(k, ev)
				continue
			}
			g.stats.StaleWakes++
			continue // stale wake: the condition it signalled was already consumed
		}
		g.stats.Resumes++
		if p.now < k.t {
			p.now = k.t
		}
		p.state = stateRunning
		p.group = g
		if p.fm != nil {
			p.runMachine()
		} else {
			p.co.next()
		}
		g.settle(p)
	}
}

// settle records what a process that just gave up control left behind: its
// panic fails the group and stops the run, its completion retires it.
func (g *execGroup) settle(p *Proc) {
	if p.panicked != nil {
		g.fail(p.panicked)
		g.eng.stopped = true
	}
	if p.state == stateDone {
		p.release()
	}
}

// formEpoch partitions every pending event into independence groups. Called
// in scheduler context with a non-empty queue; deterministic for a given
// queue state, and allocation-free once the tables and the group pool have
// reached the world's working size.
func (e *Engine) formEpoch() {
	e.epochID++ // invalidates every resTab row and footprint memo at once
	e.ngroups = 0
	e.formSets = 0
	q := &e.q
	e.now = q.keys[0].t // epoch floor; monotone because spills never precede it
	if !e.declared {
		// Nothing names a resource but Global: one set, and no event needs
		// asking. Stamping Global routes every resource to the one group.
		e.find(Global)
		e.formSingle()
		return
	}

	// Pass 1: union every event's resources (union-find over resTab rows).
	// The partition does not depend on the walk order, so this pass takes the
	// queue as it lies; footprints are evaluated in that (deterministic)
	// order, once per process.
	for _, k := range q.keys {
		res := e.touched(k)
		root := e.find(res[0])
		for _, r := range res[1:] {
			if r2 := e.find(r); r2 != root {
				e.resTab[r2].parent = root
				e.formSets--
			}
		}
	}
	if e.formSets == 1 {
		// Every row pass 1 stamped belongs to the one group: nothing to walk
		// again.
		e.formSingle()
		return
	}

	// Pass 2: build groups in first-event order — deterministic indices — and
	// record every resource's owner for routing during execution. The keys are
	// sorted in place (a sorted array is a valid d-ary heap, so nothing is
	// drained) and each key moves to its group's queue in (t, seq) order,
	// where the pushes never sift. The payloads stay in their slots.
	e.single = nil
	slices.SortFunc(q.keys, hkey.compare)
	baseSeq := e.seq
	tab := e.resTab
	for _, k := range q.keys {
		res := e.touched(k)
		root := e.find(res[0])
		g := tab[root].group
		if g == nil {
			g = e.nextGroup(baseSeq)
			tab[root].group = g
		}
		for _, r := range res {
			tab[r].group = g
		}
		g.own.push(k)
	}
	q.reset()
}

// formSingle makes the epoch one group that dispatches on the global queue
// where it lies and owns every resource the formation stamped.
func (e *Engine) formSingle() {
	g := e.nextGroup(e.seq)
	g.q = &e.q
	e.single = g
}

// find returns r's union-find root for the epoch being formed, reviving the
// row (as a singleton set) the first time the epoch sees r. Scheduler context
// only: it is the one place resTab grows.
func (e *Engine) find(r Res) Res {
	if int(r) >= len(e.resTab) {
		n := max(64, 2*len(e.resTab))
		for n <= int(r) {
			n *= 2
		}
		grown := make([]resEntry, n)
		copy(grown, e.resTab)
		e.resTab = grown
	}
	tab := e.resTab
	if tab[r].stamp != e.epochID {
		tab[r] = resEntry{stamp: e.epochID, parent: r}
		e.formSets++
		return r
	}
	for tab[r].parent != r {
		p := tab[r].parent
		tab[r].parent = tab[p].parent
		r = p
	}
	return r
}

// nextGroup readies the next pooled group for the epoch being formed.
func (e *Engine) nextGroup(baseSeq uint64) *execGroup {
	if e.ngroups == len(e.groups) {
		e.groups = append(e.groups, &execGroup{eng: e})
	}
	g := e.groups[e.ngroups]
	g.idx = e.ngroups
	e.ngroups++
	g.q = &g.own
	g.own.maxDepth = 0
	g.now, g.seq, g.quota = e.now, baseSeq, epochQuota
	g.stats = Stats{}
	g.failure = nil
	return g
}

// touched resolves the resources the event under one formation key touches.
// The slice aliases the event's slot, the proc's footprint memo or
// globalResList; it is valid until the slot or the memo next changes.
func (e *Engine) touched(k hkey) []Res {
	ev := e.slab.at(k.slot)
	if ev.isCallback() {
		if k.nres == 0 {
			return globalResList
		}
		return ev.res[:k.nres]
	}
	p := ev.proc()
	if p == nil || p.footprint == nil {
		return globalResList
	}
	if p.fpEpoch != e.epochID {
		p.fpEpoch = e.epochID
		p.fpCache = p.footprint(p.fpCache[:0])
		if len(p.fpCache) == 0 {
			p.fpCache = append(p.fpCache, Global)
		}
		for _, r := range p.fpCache {
			if r < 0 {
				panic(fmt.Sprintf("sim: negative resource id %d in the footprint of proc %q", r, p.name))
			}
		}
	}
	return p.fpCache
}

var globalResList = []Res{Global}

// runEpochs is the dispatch loop: one epoch after another until the queue and
// the quiesce list are both empty or the run stops.
func (e *Engine) runEpochs() {
	for !e.stopped {
		if e.q.len() == e.q.bg && e.popQuiesce() {
			continue // quiescent: only background alarms (if any) remain
		}
		if e.q.len() == 0 {
			return
		}
		e.stepEpoch()
	}
}

// stepEpoch forms, executes and commits one epoch over a non-empty queue.
func (e *Engine) stepEpoch() {
	e.formEpoch()
	// The phase-shift flag is good for exactly one formation: every footprint
	// consulted there saw it and had its chance to retire stale claims.
	e.phaseShift = false
	groups := e.groups[:e.ngroups]
	e.stats.ParallelBatches++
	e.stats.MaxBatchWidth = max(e.stats.MaxBatchWidth, len(groups))
	e.inEpoch = true
	for _, g := range groups {
		g.dispatch()
	}
	e.inEpoch = false
	e.commitEpoch()
}

// commitEpoch merges group results back into the engine: counters, the
// earliest failure, and leftover events re-sequenced deterministically.
func (e *Engine) commitEpoch() {
	groups := e.groups[:e.ngroups]
	depth := 0
	yields := uint64(0)
	for _, g := range groups {
		// Between epochs Now is the time of the last event dispatched.
		e.now = max(e.now, g.now)
		e.stats.Dispatched += g.stats.Dispatched
		e.stats.Callbacks += g.stats.Callbacks
		e.stats.Resumes += g.stats.Resumes
		e.stats.StaleWakes += g.stats.StaleWakes
		e.stats.CoalescedWakes += g.stats.CoalescedWakes
		yields += g.stats.RegroupYields
		depth += g.own.maxDepth // zero in place: the global queue's own mark covers it
		// Earliest failure wins, by (virtual time, group index).
		if g.failure != nil && (e.failure == nil || g.failAt < e.failureAt) {
			e.failure = g.failure
			e.failureAt = g.failAt
		}
	}
	if depth > e.epochDepthMax {
		e.epochDepthMax = depth
	}
	e.stats.RegroupYields += yields
	// A regroup-yield storm — many processes claiming resources their groups
	// did not own in the same epoch — signals a communication-pattern switch:
	// the claims that shaped the old groups are stale. Raise the phase-shift
	// flag so the next formation's footprints may retire quiescent claims
	// eagerly and re-widen, instead of inheriting the old merge for a full
	// decay window.
	if yields >= e.phaseStormThreshold() {
		e.phaseShift = true
		e.stats.PhaseRewidens++
	}
	// Flush buffered emissions in (t, group index, group-local seq) order.
	// Flushed even on stop, so a failed traced run keeps the records of every
	// group that executed.
	if e.emit != nil {
		e.flushEmits(groups)
	}
	if e.stopped {
		return // pending events are discarded
	}
	if g := groups[0]; g.q == &e.q {
		// Dispatched in place: leftovers never left the global queue and keep
		// their keys. Spills re-enter under the (t, local seq) keys they were
		// given, which is where a re-sequencing commit would have put them —
		// the local counter ran on from the global one.
		e.seq = g.seq
		for _, k := range g.spill {
			if k.timer {
				e.slab.at(k.slot).proc().timerSeq = k.seq // the proc is parked on this timer
			}
			e.q.push(k)
		}
		g.spill = g.spill[:0]
		return
	}
	// Re-commit the keys of leftovers and spills: (t, group index, local seq)
	// order, with fresh global sequence numbers. Group-local order is causal
	// order; the cross-group tie-break at equal times is by deterministic group
	// index. (group, seq) is unique, so the sort is a total order. The
	// payloads stay in their slots.
	buf := e.commitBuf[:0]
	for gi, g := range groups {
		for _, k := range g.own.keys {
			buf = append(buf, commitKey{hkey: k, gi: int32(gi)})
		}
		for _, k := range g.spill {
			buf = append(buf, commitKey{hkey: k, gi: int32(gi)})
		}
	}
	slices.SortFunc(buf, func(a, b commitKey) int {
		switch {
		case a.t != b.t:
			return cmp.Compare(a.t, b.t)
		case a.gi != b.gi:
			return cmp.Compare(a.gi, b.gi)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, c := range buf {
		e.seq++
		k := c.hkey
		k.seq = e.seq
		if k.timer {
			if p := e.slab.at(k.slot).proc(); p != nil {
				// The proc is parked on this timer; re-key it to the new seq.
				p.timerSeq = e.seq
			}
		}
		e.q.push(k)
	}
	e.commitBuf = buf[:0]
	for _, g := range groups {
		g.own.reset()
		g.spill = g.spill[:0]
	}
}

// commitKey is one leftover or spilled event awaiting re-commit: its
// group-local key plus the index of the group that held it.
type commitKey struct {
	hkey
	gi int32
}

// phaseStormThreshold is the per-epoch regroup-yield count that flags a
// phase change: a quarter of the processes, but at least two. Ordinary churn
// (one rank claiming one new pair) stays below it; a pattern switch — every
// rank re-pairing at once — clears it easily.
func (e *Engine) phaseStormThreshold() uint64 {
	th := uint64(len(e.procs) / 4)
	if th < 2 {
		th = 2
	}
	return th
}

// flushEmits hands the epoch's buffered emissions to the emitter in
// (t, group index, group-local seq) order. Within a group seq order is
// causal order, but timestamps are not monotone across groups — one group
// may run ahead of another in virtual time before the barrier — so the
// merged stream is sorted, not concatenated. The (group, seq) pair is
// unique, making the sort a total order.
func (e *Engine) flushEmits(groups []*execGroup) {
	buf := e.emitBuf[:0]
	for gi, g := range groups {
		for _, er := range g.emits {
			buf = append(buf, groupEmit{gi: gi, er: er})
		}
		clear(g.emits) // drop payload references
		g.emits = g.emits[:0]
	}
	slices.SortFunc(buf, func(a, b groupEmit) int {
		switch {
		case a.er.t != b.er.t:
			return cmp.Compare(a.er.t, b.er.t)
		case a.gi != b.gi:
			return cmp.Compare(a.gi, b.gi)
		}
		return cmp.Compare(a.er.seq, b.er.seq)
	})
	for i := range buf {
		e.emit(buf[i].er.payload)
	}
	clear(buf)
	e.emitBuf = buf[:0]
}

// groupEmit is one buffered emission tagged with its group's index.
type groupEmit struct {
	gi int
	er emitRec
}

// groupFor routes an engine call made during epoch execution to the group
// owning res. It panics when res is unowned and no global group exists —
// that means an event touched a resource outside its declared footprint.
func (e *Engine) groupFor(res Res) *execGroup {
	if g := e.owner(res); g != nil {
		return g
	}
	if g := e.owner(Global); g != nil {
		return g
	}
	panic(fmt.Sprintf("sim: resource %d touched during an epoch that owns neither it nor Global (undeclared footprint)", res))
}

// owner is the group owning res in the current epoch, or nil when the
// epoch's formation never saw res.
func (e *Engine) owner(res Res) *execGroup {
	tab := e.resTab
	if uint(res) >= uint(len(tab)) || tab[res].stamp != e.epochID {
		return nil
	}
	if e.single != nil {
		return e.single
	}
	return tab[res].group
}
