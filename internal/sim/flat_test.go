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
}

// send delivers a token to the peer. No Advance here: body Advance may yield
// through the event queue while machine Advance is a pure clock bump (the
// documented facade difference), which would reorder same-time emissions
// between the body and machine forms of this workload.
func (s *pingState) send(p *Proc) {
	*s.peerBox++
	s.peer.UnparkAt(p.Now() + 100*Nanosecond)
	p.Emit(fmt.Sprintf("%s sent %d @%v", p.Name(), s.round, p.Now()))
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
		p.Emit(fmt.Sprintf("%s got %d @%v", p.Name(), m.round, p.Now()))
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
			p.Emit(fmt.Sprintf("%s got %d @%v", p.Name(), s.round, p.Now()))
			if !s.initiator {
				s.send(p)
			}
			p.Sleep(50 * Nanosecond)
		}
	}
}

// runPingWorld wires nPairs ping-pong pairs into a fresh engine and returns
// the emission stream plus final stats. machines selects the body kind:
// continuation machines in the arena, or blocking bodies on coroutines. With
// footprints=true each pair declares a private resource pair so the world
// runs under epoch dispatch at the given worker width.
func runPingWorld(t *testing.T, machines bool, nPairs, iters, workers int, footprints bool) (string, Stats) {
	t.Helper()
	e := NewEngine()
	e.SetWorkers(workers)
	var out strings.Builder
	e.SetEmitter(func(payload any) { fmt.Fprintln(&out, payload) })

	for i := 0; i < nPairs; i++ {
		boxes := make([]int, 2)
		mk := func(j int, init bool) (*pingState, *Proc) {
			s := &pingState{box: &boxes[j], peerBox: &boxes[1-j], iters: iters, initiator: init}
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
	return out.String(), e.Stats()
}

// TestMachineMatchesBody is the core equivalence property of the two body
// kinds: the same ping-pong workload written as blocking bodies and as
// continuation machines produces byte-identical emission streams.
func TestMachineMatchesBody(t *testing.T) {
	body, _ := runPingWorld(t, false, 4, 5, 1, false)
	mach, _ := runPingWorld(t, true, 4, 5, 1, false)
	if body != mach {
		t.Fatalf("machine diverged from body:\nbody:\n%s\nmachine:\n%s", body, mach)
	}
}

// TestFlatEpochWidths runs footprinted machines under epoch dispatch at
// widths 1/2/4/8 and requires byte-identical emissions, equal to the blocking
// bodies' at width 1.
func TestFlatEpochWidths(t *testing.T) {
	ref, _ := runPingWorld(t, false, 8, 4, 1, true)
	for _, w := range []int{1, 2, 4, 8} {
		if got, _ := runPingWorld(t, true, 8, 4, w, true); got != ref {
			t.Fatalf("machines at width %d diverged from bodies at width 1:\nref:\n%s\ngot:\n%s", w, ref, got)
		}
	}
}

// TestFlatArenaAccounting checks the arena Stats fields: a machine world
// reports arena capacity and peak-live counts, a world of blocking bodies
// reports none, and the per-proc byte accounting makes machines dramatically
// cheaper than the same workload on coroutines.
func TestFlatArenaAccounting(t *testing.T) {
	_, smach := runPingWorld(t, true, 16, 2, 1, false)
	_, sbody := runPingWorld(t, false, 16, 2, 1, false)
	if smach.ArenaSlots != arenaSlab {
		t.Fatalf("ArenaSlots = %d, want one slab (%d)", smach.ArenaSlots, arenaSlab)
	}
	if smach.ArenaPeakLive != 32 {
		t.Fatalf("ArenaPeakLive = %d, want 32", smach.ArenaPeakLive)
	}
	if sbody.ArenaSlots != 0 || sbody.ArenaPeakLive != 0 {
		t.Fatalf("blocking-body world reported arena stats: %+v", sbody)
	}
	if smach.PeakProcBytes == 0 || sbody.PeakProcBytes == 0 {
		t.Fatalf("missing PeakProcBytes: machines=%d bodies=%d", smach.PeakProcBytes, sbody.PeakProcBytes)
	}
	if sbody.PeakProcBytes <= 2*smach.PeakProcBytes {
		t.Fatalf("blocking bodies should cost several times machines: machines=%d bodies=%d",
			smach.PeakProcBytes, sbody.PeakProcBytes)
	}
}

// advanceMachine exercises machine Advance: always a pure clock bump.
type advanceMachine struct{ rounds int }

func (m *advanceMachine) Step(p *Proc) Flow {
	if m.rounds == 0 {
		return Done
	}
	m.rounds--
	p.Advance(10 * Nanosecond)
	p.Emit(fmt.Sprintf("tick @%v", p.Now()))
	p.Sleep(90 * Nanosecond)
	return More
}

// TestMachineAdvanceBumpsClock: machine Advance costs virtual time without
// yielding.
func TestMachineAdvanceBumpsClock(t *testing.T) {
	e := NewEngine()
	var out strings.Builder
	e.SetEmitter(func(payload any) { fmt.Fprintln(&out, payload) })
	p := e.GoMachine("adv", &advanceMachine{rounds: 3})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "tick @10.000ns\ntick @110.000ns\ntick @210.000ns\n"
	if out.String() != want {
		t.Fatalf("emissions:\n%s\nwant:\n%s", out.String(), want)
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
		{"sleep-emit", sleep, func(p *Proc) { p.Emit("late") }, "Emit after the step's blocking primitive"},
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
