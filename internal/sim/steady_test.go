package sim

import (
	"fmt"
	"testing"
)

// ticker is a flat proc that wakes its partner (often stale or coalesced),
// parks until its own pooled-argument callback wakes it, then sleeps,
// round and round until told to stop.
type ticker struct {
	self, peer **Proc
	stop       *bool
	wakeAt     Time
	phase      int
}

func tickCallback(arg any) {
	m := arg.(*ticker)
	(*m.self).UnparkAt(m.wakeAt)
}

func (m *ticker) turn(p *Proc) {
	(*m.peer).UnparkAt(p.Now())
	m.wakeAt = p.Now() + Nanosecond
	p.Engine().AtArg(m.wakeAt, tickCallback, m)
}

func (m *ticker) Step(p *Proc) Flow {
	if *m.stop {
		return Done
	}
	if m.phase ^= 1; m.phase == 1 {
		m.turn(p)
		p.Park()
	} else {
		p.Sleep(Nanosecond)
	}
	return More
}

// steadyWorld builds pairs of procs — machines (flat) or blocking bodies —
// that keep every engine path busy forever: timers, parks and wakes, pooled
// callbacks. shared picks what the procs pass to the resource shims (their own
// resources, or Global), which must change nothing.
func steadyWorld(flat, shared bool, stop *bool) *Engine {
	e := NewEngine()
	const pairs = 6
	procs := make([]*Proc, 2*pairs)
	for id := range procs {
		a, b := Res(1+id), Res(1+(id^1))
		if shared {
			a, b = Global, Global
		}
		m := &ticker{self: &procs[id], peer: &procs[id^1], stop: stop}
		if flat {
			procs[id] = e.GoMachine(fmt.Sprint("m", id), m)
		} else {
			procs[id] = e.Go(fmt.Sprint("g", id), func(p *Proc) {
				for !*stop {
					m.turn(p)
					p.Park()
					p.Sleep(Nanosecond)
				}
			})
		}
		procs[id].SetRes(a)
		procs[id].SetFootprint(func(buf []Res) []Res { return append(buf, a, b) })
	}
	return e
}

// dispatchFor runs e's dispatch loop for span of virtual time: a callback at
// its end stops the loop, and the next call lifts the stop.
func dispatchFor(e *Engine, span Time, stop func()) {
	e.stopped = false
	e.At(e.now+span, stop)
	e.dispatch()
}

// TestSteadyStateEpochAllocatesNothing warms an engine until its queue, slab
// and coroutines have reached working size, then requires dispatch —
// callbacks, wakes, coroutine switches and machine steps — to
// allocate nothing, for both proc kinds and both shapes of shim calls. The
// names are from when the engine dispatched in epochs; the /w1 suffix from
// when it had a dispatch width.
func TestSteadyStateEpochAllocatesNothing(t *testing.T) {
	for _, flat := range []bool{true, false} {
		for _, shared := range []bool{false, true} {
			t.Run(fmt.Sprintf("flat=%v/shared=%v/w1", flat, shared), func(t *testing.T) {
				halt := false
				e := steadyWorld(flat, shared, &halt)
				stop := e.Stop
				step := func() { dispatchFor(e, 4*Nanosecond, stop) }
				for i := 0; i < 64; i++ {
					step()
				}
				before := e.Stats()
				if got := testing.AllocsPerRun(100, step); got != 0 {
					t.Errorf("%v allocations per steady-state span, want 0", got)
				}
				if n := e.Stats().Dispatched - before.Dispatched; n < 100*12 {
					t.Errorf("measured spans dispatched only %d events", n)
				}
				halt = true
				e.stopped = false
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
