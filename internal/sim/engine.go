package sim

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
)

// Engine is a discrete-event scheduler. A simulated process with a blocking
// body is a coroutine of whoever dispatches it (coro.go): control passes to it
// only when its pending event has been dispatched, always in deterministic
// (virtual time, sequence) order, and comes back when it blocks or ends, so
// every simulated result is reproducible and data-race-free.
//
// Scheduler context — where callbacks, footprints, formation, dispatch and
// commit run — is Run's caller, the engine's one dispatcher. It is parked
// while a process it resumed runs, so nothing in an engine ever runs
// concurrently with anything else in it, and no result can depend on the
// host.
//
// There is one dispatch loop, epoch dispatch (see epoch.go): pending events
// are partitioned by the resources they declare — process footprints
// (Proc.SetFootprint), callback tags (AtRes, AtArg) — into causally
// independent groups, which Run's caller dispatches one after another in
// group-index order. Whatever declares nothing touches Global, so a world
// that declares nothing is one group per epoch, dispatched in (time,
// sequence) order on the global queue.
//
// Typical use:
//
//	e := sim.NewEngine()
//	e.Go("rank0", func(p *sim.Proc) { ... })
//	e.Go("rank1", func(p *sim.Proc) { ... })
//	if err := e.Run(); err != nil { ... }
type Engine struct {
	q eventQueue
	// slab holds the payload of every event the engine has, in any queue.
	slab  slab
	seq   uint64
	now   Time
	procs []*Proc

	stopped   bool
	failure   error
	failureAt Time

	stats Stats

	// Epoch dispatch state (epoch.go). epochID increments at every
	// formation; inEpoch is true while groups execute. resTab is the dense
	// per-resource table (union-find links and owning groups, validated by
	// epoch stamp), formSets counts the disjoint sets of the formation in
	// progress, groups is the recycled group pool whose first ngroups entries
	// are the current epoch's, single is that one group when the epoch formed
	// only one (its resTab rows then name no owner), and commitBuf/emitBuf are
	// the commit sort scratch. All of it is written in scheduler context only.
	//
	// declared is raised, for good, by the first footprint installed or the
	// first callback tagged with a resource other than Global. Until then
	// every event touches Global alone, so an epoch is one set by
	// construction and formation skips its walk over the pending events —
	// what keeps a deep queue that declares nothing (a 262144-rank scale
	// proxy) from paying O(pending) per 256 events dispatched.
	declared      bool
	inEpoch       bool
	epochID       uint64
	resTab        []resEntry
	formSets      int
	groups        []*execGroup
	ngroups       int
	single        *execGroup
	commitBuf     []commitKey
	emitBuf       []groupEmit
	epochDepthMax int
	// phaseShift is raised at commit when an epoch's regroup yields crossed
	// the storm threshold — a communication-pattern switch — and consumed by
	// the next formation, where footprints may retire stale state eagerly
	// (PhaseShift). Written and read only in scheduler context.
	phaseShift bool

	// arena holds machine procs in fixed-capacity slabs (flat.go).
	arena [][]Proc

	// emit, when installed, receives observer payloads (trace records) in
	// commit order — (t, group index, group-local seq), flushed at each epoch
	// barrier.
	emit func(payload any)

	// quiesce holds one-shot callbacks to run the next time the event queue
	// drains completely (AtQuiesce). Fired FIFO, one per drain, in scheduler
	// context; a callback that schedules new events resumes normal dispatch
	// before the next quiesce callback fires.
	quiesce []func()
}

// Stats counts scheduler activity, for capacity planning and engine
// benchmarks. Group counters merge at each epoch barrier in group-index
// order.
type Stats struct {
	// Dispatched is the number of events popped and handled.
	Dispatched uint64
	// Callbacks is the subset that were scheduler callbacks (At/AtRes/AtArg).
	Callbacks uint64
	// Resumes is the subset that handed control to a process.
	Resumes uint64
	// StaleWakes is the subset dropped as stale process wakes.
	StaleWakes uint64
	// CoalescedWakes counts Unpark requests dropped before ever entering
	// the queue because an identical-time wake was already pending (or the
	// target process had finished).
	CoalescedWakes uint64
	// MaxHeapDepth is the high-water mark of the pending-event queue: the
	// global heap, or the per-epoch sum of group heaps, whichever is larger.
	MaxHeapDepth int
	// ParallelBatches is the number of epochs formed, of any width.
	ParallelBatches uint64
	// MaxBatchWidth is the widest epoch: the maximum number of causally
	// independent groups one formation made.
	MaxBatchWidth int
	// RegroupYields counts processes that yielded out of an epoch because
	// they claimed a resource their group did not own (Proc.YieldRegroup).
	// A burst of them in one epoch signals a communication-pattern switch.
	RegroupYields uint64
	// NarrowedPairs counts footprint entries retired by decay: each time a
	// footprint callback drops a quiescent resource claim it reports the drop
	// via AddNarrowed.
	NarrowedPairs uint64
	// PhaseRewidens counts epochs whose regroup-yield storm crossed the
	// phase-change threshold, letting the next formation retire stale
	// footprint state eagerly instead of waiting out the decay window.
	PhaseRewidens uint64
}

// Stats returns a snapshot of scheduler counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.MaxHeapDepth = e.q.maxDepth
	if e.epochDepthMax > s.MaxHeapDepth {
		s.MaxHeapDepth = e.epochDepthMax
	}
	return s
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// SetWorkers does nothing: Run's caller dispatches every epoch group. It is
// kept for the benchmark's layer drivers, which still call it.
func (e *Engine) SetWorkers(int) {}

// SetEmitter installs fn as the engine's emission sink (Proc.Emit, EmitAt).
// Emissions are buffered per group and fn is called at each epoch barrier in
// (t, group index, group-local seq) order — the same deterministic order
// commitEpoch re-sequences events in. fn runs in scheduler context. Call
// before Run; nil removes the sink.
func (e *Engine) SetEmitter(fn func(payload any)) { e.emit = fn }

// EmitAt forwards payload to the installed emitter from contexts that have
// no Proc (scheduler callbacks, substrate hooks). The caller must own res,
// exactly as for AtRes. Between epochs (setup, quiesce callbacks) there is no
// group to buffer in and the payload is forwarded at once.
func (e *Engine) EmitAt(t Time, res Res, payload any) {
	if e.emit == nil {
		return
	}
	if e.inEpoch {
		g := e.groupFor(res)
		g.seq++
		g.emits = append(g.emits, emitRec{t: t, seq: g.seq, payload: payload})
		return
	}
	e.emit(payload)
}

// AtQuiesce schedules fn to run in scheduler context the next time the event
// queue drains completely — i.e. when every process is parked or done and no
// callback is pending, background alarms (AtBackground) excepted. This is
// the engine's quiescence point: no message can be in flight, because
// anything in flight would still have a delivery event
// queued. Callbacks fire one per drain in FIFO order; a callback that wakes
// processes resumes normal dispatch before the next one fires. A drain with
// quiesce callbacks pending is not a deadlock — the run ends only when both
// the queue and the quiesce list are empty. During a run, call it only from
// code that owns Global: the group holding the background alarms consults the
// list (see execGroup.dispatch).
func (e *Engine) AtQuiesce(fn func()) { e.quiesce = append(e.quiesce, fn) }

// popQuiesce fires the oldest pending quiesce callback, reporting whether one
// ran. Called between epochs when the queue drains.
func (e *Engine) popQuiesce() bool {
	if len(e.quiesce) == 0 {
		return false
	}
	fn := e.quiesce[0]
	e.quiesce = e.quiesce[1:]
	fn()
	return true
}

// Now reports the engine's current virtual time. While an epoch of one group
// executes — the only shape a world that declares nothing ever forms — it is
// the time of the event being dispatched; between epochs (quiesce callbacks,
// the deadlock report) it is the time of the last event dispatched. At
// formation, and throughout an epoch of several groups — every group keeps
// its own clock — Now is the epoch's floor: the earliest pending event time.
func (e *Engine) Now() Time {
	if e.inEpoch && e.ngroups == 1 {
		return e.groups[0].now
	}
	return e.now
}

// EpochID reports the current epoch's id (zero before the first epoch
// forms). Written at formation, so every group of an epoch sees the same
// value.
func (e *Engine) EpochID() uint64 { return e.epochID }

// PhaseShift reports whether the previous epoch ended in a regroup-yield
// storm — a communication-pattern switch. Footprint callbacks (which run in
// scheduler context at formation) may consult it to retire still-quiescent
// claims eagerly instead of waiting out a decay window; the flag is cleared
// once the epoch that consumed it is formed.
func (e *Engine) PhaseShift() bool { return e.phaseShift }

// AddNarrowed records n footprint entries retired by decay (Stats
// NarrowedPairs). For use by footprint callbacks, which run in scheduler
// context at epoch formation.
func (e *Engine) AddNarrowed(n int) { e.stats.NarrowedPairs += uint64(n) }

// At schedules fn to run in scheduler context at virtual time t. Scheduling
// in the past is clamped to the current time (the event still runs after
// every event already pending at that time, preserving causality). An
// untagged callback touches Global: it serializes with the global group.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, hkey{}, event{fnA: callFn, arg: fn})
}

// AtBackground is At for pre-scheduled alarms — a fault injector's crash
// wake, a watchdog — that are not part of the simulated message flow. A
// pending background event does not count against quiescence: AtQuiesce
// callbacks fire once everything EXCEPT background alarms has drained, so a
// crash scheduled minutes ahead cannot hold a checkpoint cut hostage. The
// alarm still fires normally (in time order) when nothing overtakes it.
func (e *Engine) AtBackground(t Time, fn func()) {
	e.schedule(t, hkey{background: true}, event{fnA: callFn, arg: fn})
}

// AtRes is At for callbacks that touch only the given resources, letting
// epoch dispatch group them with the processes owning those resources
// instead of serializing the world. The caller must own every listed
// resource (at most 4) when scheduling from inside a run.
func (e *Engine) AtRes(t Time, fn func(), res ...Res) {
	var k hkey
	ev := event{fnA: callFn, arg: fn}
	e.tag(&k, &ev, "AtRes", res)
	e.schedule(t, k, ev)
}

// AtArg is AtRes for the allocation-free form: a static callback plus a
// caller-pooled argument, avoiding the per-event closure.
func (e *Engine) AtArg(t Time, fn func(any), arg any, res ...Res) {
	var k hkey
	ev := event{fnA: fn, arg: arg}
	e.tag(&k, &ev, "AtArg", res)
	e.schedule(t, k, ev)
}

// tag records the resources a callback event touches (at most len(ev.res),
// counted in k.nres; op names the caller for the negative-id panic). Tags that
// name nothing but Global say what an untagged event says, and are dropped.
func (e *Engine) tag(k *hkey, ev *event, op string, res []Res) {
	named := false
	for _, r := range res {
		checkRes(r, op)
		named = named || r != Global
	}
	if !named {
		return
	}
	k.nres = uint8(copy(ev.res[:], res))
	e.declared = true
}

// schedule routes a new callback event to the global heap, or — during epoch
// execution — to the heap of the group owning its first resource.
func (e *Engine) schedule(t Time, k hkey, ev event) {
	if e.inEpoch {
		g := e.groupFor(ev.res[0]) // Global when untagged
		if t < g.now {
			t = g.now
		}
		g.pushLocal(t, k, ev)
		return
	}
	if t < e.now {
		t = e.now
	}
	e.push(t, k, ev)
}

// push queues an event on the global heap in scheduler context, between
// epochs, under the next global sequence number, which it returns; k carries
// the event's flags.
func (e *Engine) push(t Time, k hkey, ev event) uint64 {
	e.seq++
	k.t, k.seq, k.slot = t, e.seq, e.slab.put(ev)
	e.q.push(k)
	return e.seq
}

// Go spawns a simulated process that starts at the current virtual time.
// The process body runs on its own goroutine, as a coroutine of Run's
// caller: it executes only between the dispatcher popping its wake and the
// body's next blocking call, while the dispatcher is parked, so process code
// never races with other processes or with scheduler callbacks. Spawn before
// Run, and spawn and Run from goroutines not locked to an OS thread:
// runtime.LockOSThread pins a coroutine to its creator's thread.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		eng:   e,
		id:    len(e.procs),
		name:  name,
		now:   e.now,
		state: stateScheduled,
	}
	p.co = newCoro(p, body)
	e.procs = append(e.procs, p)
	p.timerSeq = e.push(e.now, hkey{timer: true}, event{arg: p})
	return p
}

// finish is the deferred exit of a process coroutine: the body returned or
// panicked, and control is about to come back out of the dispatcher's next,
// which settles the process. A body unwound by Engine.reap is neither done
// nor failed: the run was over before it moved.
func (p *Proc) finish() {
	if r := recover(); r != nil {
		if _, ok := r.(reaped); ok {
			return
		}
		p.bodyPanic(r)
	}
	p.state = stateDone
}

// bodyPanic records a panic recovered from the process's body as its failure.
func (p *Proc) bodyPanic(r any) {
	if abort, ok := r.(engineAbort); ok {
		p.panicked = abort.err
	} else {
		p.panicked = fmt.Errorf("proc %q panicked: %v\n%s", p.name, r, debug.Stack())
	}
}

// engineAbort is panicked by Proc.Fatalf to unwind a process body; bodyPanic
// converts it into a recorded failure without a stack dump.
type engineAbort struct{ err error }

// reaped is panicked by Proc.switchOut in a body whose run has ended
// (Engine.reap), to unwind it; finish swallows it.
type reaped struct{}

// Stop aborts the run after the current event completes. Pending events are
// discarded; Run returns nil unless a failure was already recorded.
func (e *Engine) Stop() { e.stopped = true }

// Fail aborts the run and makes Run return err. The first failure wins.
func (e *Engine) Fail(err error) {
	if e.failure == nil {
		e.failure = err
		e.failureAt = e.Now()
	}
	e.stopped = true
}

// DeadlockError reports that the event queue drained while simulated
// processes were still blocked.
type DeadlockError struct {
	// Parked lists the blocked processes (name, state and local time).
	Parked []string
	// At is the virtual time at which the simulation stalled.
	At Time
}

// Error formats the deadlock report.
func (d *DeadlockError) Error() string {
	return fmt.Sprintf("simulation deadlock at %v: %d process(es) still blocked: %s",
		d.At, len(d.Parked), strings.Join(d.Parked, ", "))
}

// Run dispatches events in virtual-time order until the queue drains, a
// process panics, or Stop/Fail is called. It returns a *DeadlockError if
// processes remain blocked when the queue empties, the recorded error on
// Fail or process panic, and nil otherwise. A run is final: once that value
// is decided the processes still blocked are ended (reap), so no goroutine
// started by Go or by Run outlives it.
func (e *Engine) Run() error {
	defer e.reap()
	e.runEpochs()
	if e.failure != nil {
		return e.failure
	}
	var parked []string
	for _, p := range e.procs {
		if p.state != stateDone {
			parked = append(parked, fmt.Sprintf("%s(%s,t=%v)", p.name, p.state, p.now))
		}
	}
	if len(parked) > 0 && !e.stopped {
		sort.Strings(parked)
		return &DeadlockError{Parked: parked, At: e.now}
	}
	return nil
}

// reap ends the coroutine of every process the run left unfinished — blocked
// when it deadlocked, stopped or failed — so its goroutine exits instead of
// staying parked for the life of the host process. A body that never started
// never runs. A suspended one unwinds: its pending switchOut panics with
// reaped, its deferred functions run, and any blocking primitive those call
// panics again at once, so a deferred collective cannot hang. Run's return
// value is already decided, and the unwinding records nothing of its own: no
// failure, no state change.
func (e *Engine) reap() {
	for _, p := range e.procs {
		if p.co != nil {
			p.co.stop()
			p.co = nil
		}
	}
}
