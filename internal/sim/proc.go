package sim

import "fmt"

// procState tracks where a simulated process is in its lifecycle.
type procState int8

const (
	// stateScheduled: the process has a pending timer event (its start event
	// or a Sleep/Advance wake) and may only be resumed by that exact timer.
	stateScheduled procState = iota
	// stateRunning: the process currently holds control.
	stateRunning
	// stateParked: the process is blocked on a condition and is resumed by
	// any Unpark event. Parked processes must re-check their condition on
	// wake (spurious wakes are possible and benign).
	stateParked
	// stateDone: the process body returned.
	stateDone
)

// String names the state for diagnostics.
func (s procState) String() string {
	switch s {
	case stateScheduled:
		return "scheduled"
	case stateRunning:
		return "running"
	case stateParked:
		return "parked"
	case stateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Proc is one simulated process with a private virtual clock, cooperatively
// scheduled by its Engine: a coroutine resumed by whichever goroutine
// dispatches its epoch group, or a machine stepped in place by it. All
// methods must be called from the process's own body except UnparkAt, which
// other processes and scheduler callbacks use to wake it.
type Proc struct {
	eng      *Engine
	id       int
	name     string
	now      Time
	state    procState
	timerSeq uint64 // sequence of the live timer event, when stateScheduled
	// co is the coroutine a blocking body runs as (coro.go); nil for
	// machines, done procs and once the run is over (Engine.reap).
	co       *coro
	panicked error

	// Machine execution state (flat.go): fm is the continuation machine the
	// dispatch loop steps in place (nil for blocking Go bodies, and once the
	// machine is done), blocked records that the current step invoked its
	// one blocking primitive, and cost is the engine's byte accounting for
	// this proc (Stats.PeakProcBytes).
	fm      Machine
	blocked bool
	cost    uint32

	// lastWakeAt / lastWakeLive track the most recently queued Unpark event
	// so duplicate wakes for the same virtual time can be coalesced instead
	// of queued. The live flag drops when that wake leaves the queue: a wake
	// may only be coalesced against one that is still pending, never against
	// one already consumed (whose re-check the process may have spent on an
	// earlier condition).
	lastWakeAt   Time
	lastWakeLive bool

	// regroupEpoch is the epoch id during which the process last called
	// YieldRegroup. Its resume timer is spilled to the next epoch, so wakes
	// popped for it later in that same epoch must be spilled too — they may
	// postdate the spilled timer in virtual time, and stale-dropping them
	// would break the in-heap guarantee that a scheduled process's timer
	// fires no earlier than any wake dropped while it slept.
	regroupEpoch uint64

	// Parallel dispatch state: res is the process's identity resource (wakes
	// route to the epoch group owning it), footprint declares what the
	// process may touch, group is the epoch group running it (set at every
	// resume), fpCache/fpEpoch memoize the footprint once per epoch.
	res       Res
	footprint FootprintFn
	group     *execGroup
	fpCache   []Res
	fpEpoch   uint64

	// Data is an arbitrary per-process slot for the layer above (the MPI
	// runtime stores its per-rank state here).
	Data any
}

// SetRes declares the process's identity resource, used to route wakes to
// the owning epoch group. Call before Run.
func (p *Proc) SetRes(r Res) {
	checkRes(r, "SetRes")
	p.res = r
}

// SetFootprint installs the process's resource footprint (see FootprintFn);
// without one the process touches Global. Call before Run.
func (p *Proc) SetFootprint(fn FootprintFn) {
	p.footprint = fn
	p.eng.declared = p.eng.declared || fn != nil
}

// CanTouch reports whether the process's current epoch group owns res, i.e.
// whether process code may touch state guarded by it right now. A process
// that needs a resource it cannot touch must widen its footprint and
// YieldRegroup.
func (p *Proc) CanTouch(r Res) bool {
	g := p.eng.owner(r)
	return g != nil && g == p.group
}

// YieldRegroup reschedules the process into the next epoch at its current
// virtual time, so that its footprint — typically just widened — is
// re-evaluated and the needed groups merge. Costs no virtual time; execution
// resumes after the call.
func (p *Proc) YieldRegroup() {
	g := p.group
	g.seq++
	g.spillLocal(p.now, g.seq, event{proc: p, timer: true})
	g.stats.RegroupYields++
	p.state = stateScheduled
	// Record the yield so wakes aimed at this process later in the epoch are
	// spilled rather than stale-dropped: the resume timer above fires only
	// next epoch, so unlike an in-heap timer it may predate those wakes, and
	// dropping them would lose the condition they signal (the process would
	// re-check before the waker's virtual time and park forever).
	p.regroupEpoch = p.eng.epochID
	// timerSeq is re-keyed at commit, when the spill gets its global seq.
	p.switchOut()
}

// Emit forwards payload to the engine's emitter (SetEmitter) at the
// process's current virtual time. The payload is buffered in the process's
// group and flushed at the epoch barrier in deterministic (t, group index,
// group-local seq) order. A no-op without an emitter.
func (p *Proc) Emit(payload any) {
	p.checkStep("Emit")
	if p.eng.emit == nil {
		return
	}
	g := p.group
	g.seq++
	g.emits = append(g.emits, emitRec{t: p.now, seq: g.seq, payload: payload})
}

// ID returns the spawn-order index of the process.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the process's local virtual clock.
func (p *Proc) Now() Time { return p.now }

// Engine returns the scheduling engine that owns this process.
func (p *Proc) Engine() *Engine { return p.eng }

// checkStep panics when a machine touches the facade after its step already
// blocked — code after the blocking primitive would execute before the wake's
// virtual time, silently diverging from what the machine means. Free for
// blocking bodies, which never set blocked.
func (p *Proc) checkStep(op string) {
	if p.blocked {
		panic(fmt.Sprintf("proc %q: %s after the step's blocking primitive (machine contract: block last)", p.name, op))
	}
}

// Deferred reports whether the current machine step already invoked its
// blocking primitive — i.e. the call recorded a continuation instead of
// completing. Machine code that wraps a possibly-blocking helper (one that
// may Park or YieldRegroup internally) checks Deferred after the call: true
// means the step must unwind and return More so the primitive stays the
// step's last action. Always false for blocking bodies, whose primitives
// block for real and return only after the wake.
func (p *Proc) Deferred() bool { return p.blocked }

// wantsWake reports whether a popped proc event is a live wake for p.
// Scheduled processes accept only their own timer; parked processes accept
// only unparks (any stale timer must predate the park); running/done drop
// everything.
func (p *Proc) wantsWake(timer bool, seq uint64) bool {
	switch p.state {
	case stateScheduled:
		return timer && seq == p.timerSeq
	case stateParked:
		return !timer
	default:
		return false
	}
}

// switchOut blocks the process until a live wake for it is dispatched. The
// caller must have already set p.state and scheduled/arranged a wake. A
// goroutine-backed process yields to the dispatch loop that resumed it — one
// coroutine switch — and returns when that loop, this epoch or a later one,
// on this worker or another, pops the wake and resumes it. If the run ends
// first there is no wake to wait for: yield reports false and the body
// unwinds (Engine.reap). Machines cannot be suspended mid-step: the
// continuation is the next Step call, so switchOut only records that the
// step blocked — which is why a machine step may block at most once, as its
// last action (see flat.go).
func (p *Proc) switchOut() {
	if p.fm != nil {
		if p.blocked {
			panic(fmt.Sprintf("proc %q: machine blocked twice in one step (machine contract: one blocking primitive per step, as the last action)", p.name))
		}
		p.blocked = true
		return
	}
	if !p.co.yield(struct{}{}) {
		panic(reaped{})
	}
}

// Advance moves the local clock forward by d, modeling local work that costs
// virtual time. If other events are pending before now+d the process yields
// through the event queue so that causality is preserved (another process
// cannot observe this one "in the past"); otherwise it is a cheap clock bump.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("proc %q: Advance(%v) with negative duration", p.name, d))
	}
	if p.fm != nil {
		// Machines: always a pure clock bump. The yielding slow path below
		// would block mid-step, and whether it triggers depends on heap
		// occupancy. Machines that want a yielding wait must use Sleep.
		p.checkStep("Advance")
		p.now += d
		return
	}
	target := p.now + d
	// Only this group's events can affect this process before the next
	// barrier, so the fast path consults the group heap. Group membership is
	// decided at formation, so the outcome is identical for any worker count.
	if min, ok := p.group.q.minTime(); !ok || min >= target {
		p.now = target
		return
	}
	p.sleepUntil(target)
}

// Sleep blocks the process for d of virtual time. Unlike Advance it always
// round-trips through the event queue.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("proc %q: Sleep(%v) with negative duration", p.name, d))
	}
	p.sleepUntil(p.now + d)
}

func (p *Proc) sleepUntil(t Time) {
	p.timerSeq = p.group.pushLocal(t, event{proc: p, timer: true})
	p.state = stateScheduled
	p.switchOut()
}

// Park blocks the process until another process or a scheduler callback
// calls UnparkAt. Wakes may be spurious: callers must loop re-checking the
// condition they are waiting for. On return the local clock has advanced to
// at least the waker's unpark time.
func (p *Proc) Park() {
	p.state = stateParked
	p.switchOut()
}

// UnparkAt schedules a wake for p at virtual time at (clamped to the current
// engine time). It may be called by other processes or scheduler callbacks.
// Waking a process that is not parked when the wake fires is a harmless
// no-op, so wakers never need to know whether the sleeper already left.
//
// Duplicate wakes are coalesced: if a wake for the exact same virtual time is
// already queued, the new one is dropped. This is semantics-preserving — the
// queued wake (pushed earlier, so popped no later) fires at the same virtual
// time and parked processes re-check their condition on every wake, so the
// only thing suppressed is a zero-cost spurious re-check. Wakes for a process
// whose body already returned are likewise dropped.
func (p *Proc) UnparkAt(at Time) {
	e := p.eng
	if e.inEpoch {
		// The wake belongs to the group owning the target's identity
		// resource — which is the caller's own group, since touching another
		// process requires having claimed it in the footprint.
		g := e.groupFor(p.res)
		if at < g.now {
			at = g.now
		}
		if p.state == stateDone || (p.lastWakeLive && p.lastWakeAt == at) {
			g.stats.CoalescedWakes++
			return
		}
		g.pushLocal(at, event{proc: p})
		p.lastWakeAt = at
		p.lastWakeLive = true
		return
	}
	if at < e.now {
		at = e.now
	}
	if p.state == stateDone || (p.lastWakeLive && p.lastWakeAt == at) {
		e.stats.CoalescedWakes++
		return
	}
	e.seq++
	e.q.push(at, e.seq, event{proc: p})
	p.lastWakeAt = at
	p.lastWakeLive = true
}

// Fatalf aborts the whole simulation, recording a formatted error that
// Engine.Run will return. It does not return.
func (p *Proc) Fatalf(format string, args ...any) {
	panic(engineAbort{err: fmt.Errorf("proc %q at %v: %s", p.name, p.now, fmt.Sprintf(format, args...))})
}

// Fail aborts the whole simulation with err exactly as given, preserving
// its concrete type for errors.Is/As inspection by Engine.Run's caller
// (unlike Fatalf, which flattens to a formatted string). It does not return.
func (p *Proc) Fail(err error) {
	panic(engineAbort{err: err})
}
