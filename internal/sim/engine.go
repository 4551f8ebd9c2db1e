package sim

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

// Engine is a discrete-event scheduler. A simulated process with a blocking
// body is a coroutine of whoever dispatches it (coro.go): control passes to it
// only when its pending event has been dispatched, always in deterministic
// (virtual time, sequence) order, and comes back when it blocks or ends, so
// every simulated result is reproducible and data-race-free.
//
// There is one queue and one dispatch loop (dispatch): Run's caller pops the
// earliest pending event, runs it — a callback in place, a machine stepped in
// place, a coroutine resumed until it blocks — and pops the next. Scheduler
// context, where callbacks run, is that caller. It is parked while a process
// it resumed runs, so nothing in an engine ever runs concurrently with
// anything else in it, and no result can depend on the host.
//
// Typical use:
//
//	e := sim.NewEngine()
//	e.Go("rank0", func(p *sim.Proc) { ... })
//	e.Go("rank1", func(p *sim.Proc) { ... })
//	if err := e.Run(); err != nil { ... }
type Engine struct {
	q eventQueue
	// slab holds the payload of every pending event.
	slab  slab
	seq   uint64
	now   Time
	procs []*Proc

	stopped bool
	failure error

	stats Stats

	// arena holds machine procs in fixed-capacity slabs (flat.go).
	arena [][]Proc

	// quiesce holds one-shot callbacks to run the next time the event queue
	// drains completely (AtQuiesce). Fired FIFO, one per drain, in scheduler
	// context; a callback that schedules new events resumes normal dispatch
	// before the next quiesce callback fires.
	quiesce []func()
}

// Stats counts scheduler activity, for capacity planning and engine
// benchmarks.
type Stats struct {
	// Dispatched is the number of events popped and handled.
	Dispatched uint64
	// Callbacks is the subset that were scheduler callbacks (At/AtArg).
	Callbacks uint64
	// Resumes is the subset that handed control to a process.
	Resumes uint64
	// StaleWakes is the subset dropped as stale process wakes.
	StaleWakes uint64
	// CoalescedWakes counts Unpark requests dropped before ever entering
	// the queue because an identical-time wake was already pending (or the
	// target process had finished).
	CoalescedWakes uint64
	// MaxHeapDepth is the high-water mark of the pending-event queue.
	MaxHeapDepth int
}

// Stats returns a snapshot of scheduler counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.MaxHeapDepth = e.q.maxDepth
	return s
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Grow makes room for n more processes, so that spawning them grows neither
// the process list nor the event queue, which holds one start event per
// process, by doubling; the arrays come from an engine that ended before
// (Recycle) where there is one. It changes nothing a run does.
func (e *Engine) Grow(n int) {
	e.takeArrays()
	e.procs = slices.Grow(e.procs, n)
	e.q.keys = slices.Grow(e.q.keys, n)
}

// SetWorkers does nothing: Run's caller dispatches every event. It is kept
// for the benchmark's layer drivers, which still call it.
func (e *Engine) SetWorkers(int) {}

// AtQuiesce schedules fn to run in scheduler context the next time the event
// queue drains completely — i.e. when every process is parked or done and no
// callback is pending, background alarms (AtBackground) excepted. This is
// the engine's quiescence point: no message can be in flight, because
// anything in flight would still have a delivery event
// queued. Callbacks fire one per drain in FIFO order; a callback that wakes
// processes resumes normal dispatch before the next one fires. A drain with
// quiesce callbacks pending is not a deadlock — the run ends only when both
// the queue and the quiesce list are empty.
func (e *Engine) AtQuiesce(fn func()) { e.quiesce = append(e.quiesce, fn) }

// popQuiesce fires the oldest pending quiesce callback, reporting whether one
// ran.
func (e *Engine) popQuiesce() bool {
	if len(e.quiesce) == 0 {
		return false
	}
	fn := e.quiesce[0]
	e.quiesce = e.quiesce[1:]
	fn()
	return true
}

// Now reports the engine's current virtual time: while an event runs, its
// time; between events (quiesce callbacks, the deadlock report), the time of
// the last event dispatched.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run in scheduler context at virtual time t. Scheduling
// in the past is clamped to the current time (the event still runs after
// every event already pending at that time, preserving causality).
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

// AtArg is At for the allocation-free form: a static callback plus a
// caller-pooled argument, avoiding the per-event closure.
func (e *Engine) AtArg(t Time, fn func(any), arg any) {
	e.schedule(t, hkey{}, event{fnA: fn, arg: arg})
}

// schedule queues a callback event at t, clamped to the current time.
func (e *Engine) schedule(t Time, k hkey, ev event) {
	if t < e.now {
		t = e.now
	}
	e.push(t, k, ev)
}

// push queues an event under the next sequence number, which it returns; k
// carries the event's flags.
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
		id:    int32(len(e.procs)),
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
	e.dispatch()
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

// dispatch is the dispatch loop: pop the earliest event, run it, repeat, until
// the queue and the quiesce list are both empty or the run stops. A callback
// runs in place; a live wake for a machine steps it in place, and one for a
// goroutine-backed process resumes its coroutine and gets control back when
// the body blocks, returns or panics — one coroutine round trip, no channel
// and no trip through the Go scheduler. A popped event's slot returns to the
// slab at once, and a new event takes one from it.
//
// Background alarms wait their turn behind quiescence: once only alarms
// remain, a pending quiesce callback fires first, because it belongs to the
// present drain and an alarm to the future.
func (e *Engine) dispatch() {
	q := &e.q
	for !e.stopped {
		if n := q.len(); n == q.bg {
			if e.popQuiesce() {
				continue
			}
			if n == 0 {
				return
			}
		}
		k := q.pop()
		ev := e.slab.vacate(k.slot)
		e.now = k.t
		e.stats.Dispatched++
		if ev.isCallback() {
			e.stats.Callbacks++
			ev.fnA(ev.arg)
			continue
		}
		p := ev.proc()
		if !k.timer && k.t == p.lastWakeAt {
			p.lastWakeLive = false // the coalescing anchor has left the queue
		}
		if !p.wantsWake(k.timer, k.seq) {
			e.stats.StaleWakes++
			continue // stale wake: the condition it signalled was already consumed
		}
		e.stats.Resumes++
		if p.now < k.t {
			p.now = k.t
		}
		p.state = stateRunning
		if p.fm != nil {
			p.runMachine()
		} else {
			p.co.next()
		}
		if p.panicked != nil {
			e.Fail(p.panicked)
		}
		if p.state == stateDone {
			p.release()
		}
	}
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
