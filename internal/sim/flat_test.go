package sim

import (
	"fmt"
	"strings"
	"testing"
)

// pingState is the shared state of one ping-pong endpoint, used both by the
// machine and by the idiomatic blocking body so the two can be compared.
type pingState struct {
	peer      *Proc
	box       *int // tokens delivered to me
	peerBox   *int // tokens delivered to my peer
	taken     int
	round     int
	iters     int
	initiator bool
	log       func(p *Proc, format string, args ...any)
}

// send delivers a token to the peer. No Advance here: body Advance may yield
// through the event queue while machine Advance is a pure clock bump (the
// documented facade difference), which would reorder same-time log lines
// between the body and machine forms of this workload.
func (s *pingState) send(p *Proc) {
	*s.peerBox++
	s.peer.UnparkAt(p.Now() + 100*Nanosecond)
	s.log(p, "sent %d", s.round)
}

// pingMachine is the continuation-state-machine form of the endpoint: pc 0
// sends, pc 1 waits for the reply (Park as the step's last action), with a
// Sleep between rounds.
type pingMachine struct {
	pingState
	pc int
}

func (m *pingMachine) Step(p *Proc) Flow {
	switch m.pc {
	case 0:
		if m.round >= m.iters {
			return Done
		}
		if m.initiator {
			m.send(p)
			m.pc = 1
			return More
		}
		m.pc = 1
		fallthrough
	case 1:
		if *m.box <= m.taken {
			p.Park()
			return More
		}
		m.taken++
		m.log(p, "got %d", m.round)
		if !m.initiator {
			m.send(p)
		}
		m.round++
		m.pc = 0
		p.Sleep(50 * Nanosecond)
		return More
	}
	panic("unreachable")
}

// pingBody is the same endpoint written as an ordinary blocking body.
func pingBody(s *pingState) func(p *Proc) {
	return func(p *Proc) {
		for ; s.round < s.iters; s.round++ {
			if s.initiator {
				s.send(p)
			}
			for *s.box <= s.taken {
				p.Park()
			}
			s.taken++
			s.log(p, "got %d", s.round)
			if !s.initiator {
				s.send(p)
			}
			p.Sleep(50 * Nanosecond)
		}
	}
}

// runPingWorld wires nPairs ping-pong pairs into a fresh engine and returns
// the log plus the engine, run. machines selects the body kind:
// continuation machines in the arena, or blocking bodies on coroutines. With
// footprints=true each proc also calls the resource shims, which must change
// nothing.
func runPingWorld(t *testing.T, machines bool, nPairs, iters int, footprints bool) (string, *Engine) {
	t.Helper()
	return runPingWorldOn(t, NewEngine(), machines, nPairs, iters, footprints)
}

// runPingWorldOn is runPingWorld on the engine e, which has run nothing.
func runPingWorldOn(t *testing.T, e *Engine, machines bool, nPairs, iters int, footprints bool) (string, *Engine) {
	t.Helper()
	e.Grow(2 * nPairs)
	var out strings.Builder
	log := func(p *Proc, format string, args ...any) {
		fmt.Fprintf(&out, "%s %s @%v\n", p.Name(), fmt.Sprintf(format, args...), p.Now())
	}
	for i := 0; i < nPairs; i++ {
		boxes := make([]int, 2)
		mk := func(j int, init bool) (*pingState, *Proc) {
			s := &pingState{box: &boxes[j], peerBox: &boxes[1-j], iters: iters, initiator: init, log: log}
			name := fmt.Sprintf("pair%d.%d", i, j)
			var p *Proc
			if machines {
				m := &pingMachine{pingState: *s}
				s = &m.pingState // the machine copied the state; wire the copy
				p = e.GoMachine(name, m)
			} else {
				p = e.Go(name, pingBody(s))
			}
			if footprints {
				ra, rb := Res(1+2*i), Res(2+2*i)
				p.SetRes(Res(1 + 2*i + j))
				p.SetFootprint(func(dst []Res) []Res { return append(dst, ra, rb) })
			}
			return s, p
		}
		s0, p0 := mk(0, true)
		s1, p1 := mk(1, false)
		s0.peer, s1.peer = p1, p0
	}
	if err := e.Run(); err != nil {
		t.Fatalf("machines=%v world: %v", machines, err)
	}
	return out.String(), e
}

// TestMachineMatchesBody is the core equivalence property of the two body
// kinds: the same ping-pong workload written as blocking bodies and as
// continuation machines produces byte-identical logs, with and
// without the resource shims called.
func TestMachineMatchesBody(t *testing.T) {
	for _, w := range []struct {
		pairs, iters int
		footprints   bool
	}{{4, 5, false}, {8, 4, true}} {
		body, _ := runPingWorld(t, false, w.pairs, w.iters, w.footprints)
		mach, _ := runPingWorld(t, true, w.pairs, w.iters, w.footprints)
		if body != mach {
			t.Fatalf("footprints=%v: machine diverged from body:\nbody:\n%s\nmachine:\n%s", w.footprints, body, mach)
		}
	}
}

// TestFlatArenaSlots counts arena slots: 32 machines occupy 32 slots of one
// slab, and blocking bodies occupy none.
func TestFlatArenaSlots(t *testing.T) {
	_, mach := runPingWorld(t, true, 16, 2, false)
	_, body := runPingWorld(t, false, 16, 2, false)
	if len(mach.arena) != 1 {
		t.Fatalf("machine world allocated %d arena slabs, want 1", len(mach.arena))
	}
	if slab := mach.arena[0]; len(slab) != 32 || cap(slab) != arenaSlab {
		t.Fatalf("machine world occupies %d of %d slots, want 32 of %d", len(slab), cap(slab), arenaSlab)
	}
	if len(body.arena) != 0 {
		t.Fatalf("blocking-body world allocated %d arena slabs, want none", len(body.arena))
	}
}

// advanceMachine exercises machine Advance: always a pure clock bump.
type advanceMachine struct {
	rounds int
	log    func(line string)
}

func (m *advanceMachine) Step(p *Proc) Flow {
	if m.rounds == 0 {
		return Done
	}
	m.rounds--
	p.Advance(10 * Nanosecond)
	m.log(fmt.Sprintf("tick @%v", p.Now()))
	p.Sleep(90 * Nanosecond)
	return More
}

// TestMachineAdvanceBumpsClock: machine Advance costs virtual time without
// yielding.
func TestMachineAdvanceBumpsClock(t *testing.T) {
	e := NewEngine()
	var out strings.Builder
	p := e.GoMachine("adv", &advanceMachine{rounds: 3, log: func(line string) { fmt.Fprintln(&out, line) }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "tick @10.000ns\ntick @110.000ns\ntick @210.000ns\n"
	if out.String() != want {
		t.Fatalf("log:\n%s\nwant:\n%s", out.String(), want)
	}
	if p.Now() != 300*Nanosecond {
		t.Fatalf("final clock %v, want 300ns", p.Now())
	}
}

// violatingMachine breaks the machine contract on its first step: it blocks
// with first, then touches the facade again with then.
type violatingMachine struct {
	first, then func(p *Proc)
	n           int
}

func (m *violatingMachine) Step(p *Proc) Flow {
	if m.n++; m.n > 1 {
		return Done
	}
	m.first(p)
	m.then(p) // contract violation
	return More
}

// TestFlatContractViolationFails: nothing can suspend a machine mid-step, so
// one that touches the facade after its step blocked must fail the run with
// an error naming the process and the operation.
func TestFlatContractViolationFails(t *testing.T) {
	sleep := func(p *Proc) { p.Sleep(10 * Nanosecond) }
	park := func(p *Proc) { p.Park() }
	for _, tc := range []struct {
		name        string
		first, then func(p *Proc)
		want        string
	}{
		{"sleep-sleep", sleep, sleep, "blocked twice"},
		{"park-advance", park, func(p *Proc) { p.Advance(Nanosecond) }, "Advance after the step's blocking primitive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.GoMachine("bad", &violatingMachine{first: tc.first, then: tc.then})
			err := e.Run()
			if err == nil || !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want a contract error naming proc \"bad\" and %q, got %v", tc.want, err)
			}
		})
	}
}
