package sim

// Continuation machines: simulated processes without a goroutine.
//
// A blocking Go body (Engine.Go) runs on a goroutine of its own, resumed as a
// coroutine of the dispatch loop (coro.go); handing it control is a coroutine
// switch there and one back, and every process costs at least a 2 KiB stack
// span before it has done anything. That is fine for hundreds of ranks and
// ruinous for hundreds of thousands.
//
// A Machine is the other kind of body: the process is a step function over
// explicit state. The dispatch loop calls Step directly — no goroutine, no
// coroutine, no stack — and the Proc facade (Sleep/Park/UnparkAt/SetRes/Emit)
// works unchanged on top. One Step may invoke at most one blocking primitive
// (Sleep, Park or YieldRegroup; a machine's Advance is always a pure clock
// bump, never the yielding kind), and that call must be the machine's last
// action before returning More: the primitive cannot suspend the caller, it
// only records where to resume, so anything executed after it would run
// "before its time". A contract violation panics, failing the run with an
// error that names the process and the operation.
//
// Machine procs are arena-allocated in fixed-size slabs owned by the engine,
// so a million-rank world is a handful of large allocations instead of a
// million tiny ones, and Stats can report arena utilization exactly.

import "reflect"

// Flow is a Machine step verdict: More keeps the machine alive (it either
// blocked via a Proc primitive or wants another immediate step), Done retires
// it.
type Flow uint8

const (
	// More: the machine has further steps. If the step called a blocking
	// primitive the machine sleeps until the corresponding wake; otherwise it
	// is stepped again immediately.
	More Flow = iota
	// Done: the machine's body is complete.
	Done
)

// Machine is a simulated process written as a continuation state machine:
// Step is called with the process facade each time the process runs, and the
// machine's own fields carry state between steps. See the package comment
// above for the blocking contract. Spawn with Engine.GoMachine.
type Machine interface {
	Step(p *Proc) Flow
}

// SetFlat does nothing: a machine is always stepped in place from an arena
// slot, and there is no other mode to select. It is kept only because
// bench/layers.go (sleeper) still calls it before spawning, and bench/ may be
// edited only by a benchmark issue (ROADMAP item 1 deletes both).
func (e *Engine) SetFlat(bool) {}

// GoMachine spawns a simulated process driven by a continuation state
// machine, starting at the current virtual time. The process costs one arena
// slot and no goroutine. Spawn before Run.
func (e *Engine) GoMachine(name string, m Machine) *Proc {
	p := e.arenaAlloc()
	p.eng = e
	p.id = len(e.procs)
	p.name = name
	p.now = e.now
	p.state = stateScheduled
	p.fm = m
	p.cost = uint32(procBytes + machineBytes(m))
	e.arenaLive++
	if e.arenaLive > e.stats.ArenaPeakLive {
		e.stats.ArenaPeakLive = e.arenaLive
	}
	e.chargeProc(p)
	e.procs = append(e.procs, p)
	e.seq++
	p.timerSeq = e.seq
	e.q.push(e.now, e.seq, event{proc: p, timer: true})
	return p
}

// runMachine steps a machine until it blocks or finishes. It is the machine
// counterpart of resuming a coroutine: called from the dispatch loop with
// p.state == stateRunning, it returns with the process either blocked (a
// primitive recorded the continuation) or done. Panics — including
// Fatalf/Fail aborts — become the process's failure exactly as on a goroutine.
func (p *Proc) runMachine() {
	defer func() {
		if r := recover(); r != nil {
			p.bodyPanic(r)
			p.state = stateDone
		}
	}()
	for {
		p.blocked = false
		if p.fm.Step(p) == Done {
			p.state = stateDone
			return
		}
		if p.blocked {
			return
		}
	}
}

// releaseProc retires a finished process's state: the coroutine (already
// ended — its body came back into the dispatch loop), the machine and the
// footprint cache are dropped, and the proc's byte cost leaves the live-bytes
// account. Called by the dispatch loop the moment the process is done
// (execGroup.settle); a done proc is never resumed again (wantsWake). The
// accounting is buffered in the group and merged at commit, keeping group
// execution free of shared writes.
func (e *Engine) releaseProc(p *Proc, g *execGroup) {
	if p.fm != nil {
		g.releasedProcs++
	}
	p.co = nil
	p.fm = nil
	p.fpCache = nil
	g.releasedBytes += uint64(p.cost)
}

// chargeProc adds a newly spawned process's byte cost to the live account and
// updates the peak. Spawns happen in scheduler or setup context, never inside
// concurrent group execution.
func (e *Engine) chargeProc(p *Proc) {
	e.liveProcBytes += uint64(p.cost)
	if e.liveProcBytes > e.stats.PeakProcBytes {
		e.stats.PeakProcBytes = e.liveProcBytes
	}
}

// Per-process byte accounting. The goroutine numbers are a deliberate floor —
// a real goroutine's stack starts at one 2 KiB span and only grows, the
// runtime g descriptor is measured from the Go runtime's own struct size, and
// the coroutine is charged well under what it allocates — so the
// machine-vs-blocking-body ratio the engine reports understates the real
// advantage rather than flattering it.
const (
	// goroutineStackBytes is Go's minimum stack span per goroutine.
	goroutineStackBytes = 2048
	// goroutineDescBytes approximates the runtime g descriptor.
	goroutineDescBytes = 416
	// coroBytes is charged for the coroutine (coro.go). iter.Pull's coro
	// header and captured state measure ≈300 B of heap on go1.24 (751 B in
	// 11 mallocs per coroutine, the g included); 96 is what the resume
	// channel it replaced cost, kept so the accounting floor stays 2560.
	coroBytes = 96

	goroutineOverheadBytes = goroutineStackBytes + goroutineDescBytes + coroBytes
)

// procBytes is the facade struct itself, charged to every process kind.
var procBytes = int(reflect.TypeOf(Proc{}).Size())

// SizeReporter lets a machine report the bytes of state it keeps alive
// beyond what reflect sees in its own struct — an adapter whose interface
// field points at a separately allocated program, or a machine that lazily
// allocates its largest phase. The report should be the machine's
// steady-state live footprint (count lazily allocated state at its
// worst-case size). Accounting only; never affects simulated results.
type SizeReporter interface {
	MachineBytes() int
}

// machineBytes is the machine state a process carries: the self-reported
// size for SizeReporter machines, else the pointee size for pointer machines
// (the common case), the value size otherwise.
func machineBytes(m Machine) int {
	if sr, ok := m.(SizeReporter); ok {
		return sr.MachineBytes()
	}
	t := reflect.TypeOf(m)
	if t == nil {
		return 0
	}
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return int(t.Size())
}

// arenaSlab is the machine-proc arena slab size: large enough that a
// 4096-rank world is four allocations, small enough that modest machine worlds
// do not strand much memory.
const arenaSlab = 1024

// arenaAlloc returns the next free slot in the engine's machine-proc arena,
// growing it by one slab when full. Slab capacity never changes after
// allocation, so returned pointers are stable.
func (e *Engine) arenaAlloc() *Proc {
	if n := len(e.arena); n == 0 || len(e.arena[n-1]) == cap(e.arena[n-1]) {
		e.arena = append(e.arena, make([]Proc, 0, arenaSlab))
		e.stats.ArenaSlots += arenaSlab
	}
	slab := &e.arena[len(e.arena)-1]
	*slab = append(*slab, Proc{})
	return &(*slab)[len(*slab)-1]
}
