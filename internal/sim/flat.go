package sim

// Continuation machines: simulated processes without a goroutine.
//
// A blocking Go body (Engine.Go) runs on a goroutine of its own, resumed as a
// coroutine of the dispatch loop (coro.go); handing it control is a coroutine
// switch there and one back, and every process holds a goroutine with at
// least a 2 KiB stack span while it runs — a new one, or the idle coroutine of
// a body that returned in an earlier engine, which keeps its goroutine and
// its Proc between bodies. That is fine for hundreds of ranks and ruinous for
// hundreds of thousands.
//
// A Machine is the other kind of body: the process is a step function over
// explicit state. The dispatch loop calls Step directly — no goroutine, no
// coroutine, no stack — and the Proc facade (Sleep/Park/UnparkAt/Advance)
// works unchanged on top. One Step may invoke at most one blocking primitive
// (Sleep or Park; a machine's Advance is always a pure clock bump, never the
// yielding kind), and that call must be the machine's last
// action before returning More: the primitive cannot suspend the caller, it
// only records where to resume, so anything executed after it would run
// "before its time". A contract violation panics, failing the run with an
// error that names the process and the operation.
//
// Machine procs are arena-allocated in fixed-size slabs owned by the engine,
// so a million-rank world is a handful of large allocations instead of a
// million tiny ones. A blocking body's Proc is not: it belongs to its
// coroutine, which outlives the engine. What either kind costs is measured, not computed here:
// the heap a world leaves (TestFullFidelity4096's HeapSys gate) and the bytes
// a workload allocates (the benchmark's alloc_mb).

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
	p.id = int32(len(e.procs))
	p.name = name
	p.now = e.now
	p.state = stateScheduled
	p.fm = m
	e.procs = append(e.procs, p)
	p.timerSeq = e.push(e.now, hkey{timer: true}, event{arg: p})
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

// arenaSlab is the machine-proc arena slab size: large enough that a
// 4096-rank world is four allocations, small enough that modest machine worlds
// do not strand much memory.
const arenaSlab = 1024

// arenaAlloc returns the next free slot in the engine's machine-proc arena,
// growing it by one slab when full: a spare slab of the engine this one runs
// on (NewEngineOn), else a new one. Slab capacity never changes after
// allocation, so returned pointers are stable.
func (e *Engine) arenaAlloc() *Proc {
	if n := len(e.arena); n == 0 || len(e.arena[n-1]) == cap(e.arena[n-1]) {
		var a []Proc
		if k := len(e.spare) - 1; k >= 0 {
			a, e.spare[k] = e.spare[k], nil
			e.spare = e.spare[:k]
		} else {
			a = make([]Proc, 0, arenaSlab)
		}
		e.arena = append(e.arena, a)
	}
	slab := &e.arena[len(e.arena)-1]
	*slab = append(*slab, Proc{})
	return &(*slab)[len(*slab)-1]
}
