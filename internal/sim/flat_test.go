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
// the emission stream plus final stats. kind selects the construction:
// "body" (blocking goroutine bodies), "machine-go" (machines on goroutine
// trampolines), "machine-flat" (arena-allocated flat machines). With
// footprints=true each pair declares a private resource pair so the world
// runs under epoch dispatch at the given worker width.
func runPingWorld(t *testing.T, kind string, nPairs, iters, workers int, footprints bool) (string, Stats) {
	t.Helper()
	e := NewEngine()
	e.SetWorkers(workers)
	e.SetFlat(kind == "machine-flat")
	var out strings.Builder
	e.SetEmitter(func(payload any) { fmt.Fprintln(&out, payload) })

	for i := 0; i < nPairs; i++ {
		boxes := make([]int, 2)
		mk := func(j int, init bool) (*pingState, *Proc) {
			s := &pingState{box: &boxes[j], peerBox: &boxes[1-j], iters: iters, initiator: init}
			name := fmt.Sprintf("pair%d.%d", i, j)
			var p *Proc
			if kind == "body" {
				p = e.Go(name, pingBody(s))
			} else {
				p = e.GoMachine(name, &pingMachine{pingState: *s})
			}
			if kind != "body" {
				// The machine copied the state; fish it back out for wiring.
				s = &e.procs[len(e.procs)-1].fm.(*pingMachine).pingState
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
		t.Fatalf("%s world: %v", kind, err)
	}
	return out.String(), e.Stats()
}

// TestMachineMatchesBody is the core flat-engine equivalence property: the
// same ping-pong workload written as blocking bodies, as machines on
// goroutine trampolines, and as flat arena machines produces byte-identical
// emission streams, and the two machine forms agree on scheduler stats.
func TestMachineMatchesBody(t *testing.T) {
	body, _ := runPingWorld(t, "body", 4, 5, 1, false)
	mgo, sgo := runPingWorld(t, "machine-go", 4, 5, 1, false)
	mflat, sflat := runPingWorld(t, "machine-flat", 4, 5, 1, false)
	if body != mgo {
		t.Fatalf("machine-on-goroutine diverged from body:\nbody:\n%s\nmachine:\n%s", body, mgo)
	}
	if body != mflat {
		t.Fatalf("flat machine diverged from body:\nbody:\n%s\nflat:\n%s", body, mflat)
	}
	sgo.PeakProcBytes, sflat.PeakProcBytes = 0, 0 // engine kinds account differently by design
	sgo.ArenaSlots, sflat.ArenaSlots = 0, 0
	sgo.ArenaPeakLive, sflat.ArenaPeakLive = 0, 0
	if sgo != sflat {
		t.Fatalf("machine stats diverged between engines:\ngoroutine: %+v\nflat: %+v", sgo, sflat)
	}
}

// TestFlatEpochWidths runs footprinted flat machines under epoch dispatch at
// widths 1/2/4/8 and requires byte-identical emissions, matching the
// goroutine engine at every width.
func TestFlatEpochWidths(t *testing.T) {
	ref, _ := runPingWorld(t, "machine-go", 8, 4, 1, true)
	for _, w := range []int{1, 2, 4, 8} {
		flat, _ := runPingWorld(t, "machine-flat", 8, 4, w, true)
		if flat != ref {
			t.Fatalf("flat width %d diverged from goroutine width 1:\nref:\n%s\ngot:\n%s", w, ref, flat)
		}
		goro, _ := runPingWorld(t, "machine-go", 8, 4, w, true)
		if goro != ref {
			t.Fatalf("goroutine width %d diverged from width 1", w)
		}
	}
}

// TestFlatArenaAccounting checks the new Stats fields: flat worlds report
// arena capacity and peak-live counts, and the per-proc byte accounting makes
// flat machines dramatically cheaper than the same machines on goroutines.
func TestFlatArenaAccounting(t *testing.T) {
	_, sflat := runPingWorld(t, "machine-flat", 16, 2, 1, false)
	_, sgo := runPingWorld(t, "machine-go", 16, 2, 1, false)
	if sflat.ArenaSlots != arenaSlab {
		t.Fatalf("ArenaSlots = %d, want one slab (%d)", sflat.ArenaSlots, arenaSlab)
	}
	if sflat.ArenaPeakLive != 32 {
		t.Fatalf("ArenaPeakLive = %d, want 32", sflat.ArenaPeakLive)
	}
	if sgo.ArenaSlots != 0 || sgo.ArenaPeakLive != 0 {
		t.Fatalf("goroutine world reported arena stats: %+v", sgo)
	}
	if sflat.PeakProcBytes == 0 || sgo.PeakProcBytes == 0 {
		t.Fatalf("missing PeakProcBytes: flat=%d goroutine=%d", sflat.PeakProcBytes, sgo.PeakProcBytes)
	}
	if sgo.PeakProcBytes <= 2*sflat.PeakProcBytes {
		t.Fatalf("goroutine procs should cost several times flat procs: flat=%d goroutine=%d",
			sflat.PeakProcBytes, sgo.PeakProcBytes)
	}
}

// advanceMachine exercises machine Advance: always a pure clock bump, on
// both engines.
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
// yielding, identically on both engines.
func TestMachineAdvanceBumpsClock(t *testing.T) {
	for _, flat := range []bool{false, true} {
		e := NewEngine()
		e.SetFlat(flat)
		var out strings.Builder
		e.SetEmitter(func(payload any) { fmt.Fprintln(&out, payload) })
		p := e.GoMachine("adv", &advanceMachine{rounds: 3})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := "tick @10.000ns\ntick @110.000ns\ntick @210.000ns\n"
		if out.String() != want {
			t.Fatalf("flat=%v emissions:\n%s\nwant:\n%s", flat, out.String(), want)
		}
		if p.Now() != 300*Nanosecond {
			t.Fatalf("flat=%v final clock %v, want 300ns", flat, p.Now())
		}
	}
}

// doubleBlockMachine violates the flat contract: two blocking primitives in
// one step.
type doubleBlockMachine struct{ n int }

func (m *doubleBlockMachine) Step(p *Proc) Flow {
	if m.n++; m.n > 1 {
		return Done
	}
	p.Sleep(10 * Nanosecond)
	p.Sleep(10 * Nanosecond) // contract violation
	return More
}

// TestFlatContractViolationFails: a machine that blocks twice in one step
// must fail the run with a clear error in flat mode (on the goroutine engine
// it would legitimately block twice).
func TestFlatContractViolationFails(t *testing.T) {
	e := NewEngine()
	e.SetFlat(true)
	e.GoMachine("bad", &doubleBlockMachine{})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "blocked twice") {
		t.Fatalf("want blocked-twice contract error, got %v", err)
	}
}

// TestFlatFromEnv pins the engine-selection contract: explicit
// CMPI_SIM_ENGINE values win, the empty value falls back to the size
// threshold, and a set-but-unrecognized value is a deterministic parse
// error rather than a silent fall-through.
func TestFlatFromEnv(t *testing.T) {
	cases := []struct {
		env     string
		size    int
		want    bool
		wantErr bool
	}{
		{"flat", 1, true, false},
		{"goroutine", 1 << 20, false, false},
		{"", DefaultFlatThreshold - 1, false, false},
		{"", DefaultFlatThreshold, true, false},
		{"falt", 1, false, true},
		{"FLAT", 1, false, true},
		{"flat ", 1, false, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%q-%d", tc.env, tc.size), func(t *testing.T) {
			t.Setenv("CMPI_SIM_ENGINE", tc.env)
			got, err := FlatFromEnv(tc.size)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("FlatFromEnv(%d) with %q: want error, got flat=%v", tc.size, tc.env, got)
				}
				if !strings.Contains(err.Error(), "CMPI_SIM_ENGINE=") {
					t.Fatalf("error %q does not name the variable", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("FlatFromEnv(%d) with %q: %v", tc.size, tc.env, err)
			}
			if got != tc.want {
				t.Fatalf("FlatFromEnv(%d) with %q = %v; want %v", tc.size, tc.env, got, tc.want)
			}
		})
	}
}
