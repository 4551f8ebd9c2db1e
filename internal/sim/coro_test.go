package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// own gives p a private resource and a footprint of exactly that resource, so
// p is alone in its epoch group.
func own(p *Proc, r Res) {
	p.SetRes(r)
	p.SetFootprint(func(buf []Res) []Res { return append(buf, r) })
}

// recovered runs fn and returns what it panicked with (nil if it returned).
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestCallbackPanicSurfacesFromRun: a panic raised by the dispatch loop while
// a process is suspended is the loop's, not the process's: it must come out
// of Run on the caller's goroutine with its original value, not be recorded as
// that process's failure.
func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ code int }
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		e.At(5*Nanosecond, func() { panic(boom{7}) })
		p.Sleep(10 * Nanosecond)
	})
	if r := recovered(func() { t.Errorf("Run returned %v, want a panic", e.Run()) }); r != (boom{7}) {
		t.Errorf("Run panicked with %v, want the callback's own value", r)
	}

	// The same for an engine invariant: a callback scheduling onto a resource
	// no group of the epoch owns, with no Global group to fall back to.
	e = NewEngine()
	own(e.Go("sleeper", func(p *Proc) {
		e.AtRes(5*Nanosecond, func() { e.AtRes(6*Nanosecond, func() {}, 99) }, 1)
		p.Sleep(10 * Nanosecond)
	}), 1)
	r := recovered(func() { t.Errorf("Run returned %v, want a panic", e.Run()) })
	if !strings.Contains(fmt.Sprint(r), "undeclared footprint") {
		t.Errorf("Run panicked with %v, want groupFor's undeclared-footprint panic", r)
	}
}

// TestRunEndsWhileAProcHoldsTheBaton: a run ended by Fatalf, by Stop from a
// callback, or by a process panic — each while another process is suspended
// mid-sleep — returns from Run with the error it always had, and does not
// hang. (The name is from when such a sleeper ran the dispatch loop itself; it
// is kept because the suite's floor file pins it and its three subtests.)
func TestRunEndsWhileAProcHoldsTheBaton(t *testing.T) {
	cases := []struct {
		name string
		end  func(e *Engine) // ends the run at 5ns, while the sleeper is suspended
		want string          // substring of Run's error; "" for nil
	}{
		{"Fatalf", func(e *Engine) {
			e.Go("bad", func(p *Proc) { p.Sleep(5 * Nanosecond); p.Fatalf("invariant %d broken", 7) })
		}, `proc "bad" at 5.000ns: invariant 7 broken`},
		{"Stop", func(e *Engine) { e.At(5*Nanosecond, e.Stop) }, ""},
		{"panic", func(e *Engine) {
			e.Go("bad", func(p *Proc) { p.Sleep(5 * Nanosecond); panic("kaboom") })
		}, `proc "bad" panicked: kaboom`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			woke := false
			e.Go("sleeper", func(p *Proc) { p.Sleep(10 * Nanosecond); woke = true })
			tc.end(e)
			err := e.Run()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("Run = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("Run = %v, want it to contain %q", err, tc.want)
			}
			if woke || e.Now() != 5*Nanosecond {
				t.Errorf("run went on past its end: sleeper woke=%v, Now=%v", woke, e.Now())
			}
		})
	}
}

// wakeRing spawns n processes in disjoint pairs (each pair its own group, so
// a wide engine starts pool workers) that meet for eight rounds — sleep, tell
// the partner, park until it has told too — and collects their emissions in
// *log.
func wakeRing(e *Engine, n int, log *[]string) {
	e.SetEmitter(func(payload any) { *log = append(*log, payload.(string)) })
	procs := make([]*Proc, n)
	told := make([]int, n)
	for id := range procs {
		a, b := Res(1+id), Res(1+(id^1))
		procs[id] = e.Go(fmt.Sprint("p", id), func(p *Proc) {
			for r := 0; r < 8; r++ {
				p.Sleep(Time(1+id%3) * Nanosecond)
				told[id]++
				procs[id^1].UnparkAt(p.Now())
				for told[id^1] <= r {
					p.Park()
				}
				p.Emit(fmt.Sprintf("%d.%d@%v", id, r, p.Now()))
			}
		})
		procs[id].SetRes(a)
		procs[id].SetFootprint(func(buf []Res) []Res { return append(buf, a, b) })
	}
}

// settled waits for the goroutine count to come back down to base: a pool
// worker's exit completes a moment after the close that causes it.
func settled(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// TestGoroutinesExitAfterRun: Run leaves no goroutine behind. After a clean
// run every process has finished and the pool workers are stopped. After a run
// that deadlocks, is stopped or fails, the processes it left blocked are
// unwound: their deferred functions run once — and cannot block, so a deferred
// collective does not hang the reap — a process that never started never runs,
// and Run returns what it returned when those goroutines stayed parked for
// good.
func TestGoroutinesExitAfterRun(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := NewEngine()
		e.SetWorkers(4)
		var log []string
		wakeRing(e, 16, &log)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(log) != 16*8 {
			t.Fatalf("%d emissions, want %d", len(log), 16*8)
		}
		settled(t, base)
	})

	cases := []struct {
		name string
		end  func(e *Engine) // ends the run at 5ns with "stuck" blocked
		want string          // Run's error at the parent commit; "" for nil
	}{
		{"deadlock", func(e *Engine) {},
			"simulation deadlock at 20.000ns: 1 process(es) still blocked: stuck(parked,t=5.000ns)"},
		{"Stop", func(e *Engine) { e.At(5*Nanosecond, e.Stop) }, ""},
		{"Fatalf", func(e *Engine) {
			e.Go("bad", func(p *Proc) { p.Sleep(5 * Nanosecond); p.Fatalf("invariant %d broken", 7) })
		}, `proc "bad" at 5.000ns: invariant 7 broken`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			deferred, resumed := 0, false
			e.Go("stuck", func(p *Proc) {
				defer func() {
					deferred++
					p.Sleep(Nanosecond) // a deferred MPI call blocks like this
					resumed = true
				}()
				p.Sleep(5 * Nanosecond)
				p.Park() // nobody will ever unpark it
				resumed = true
			})
			// sleeper is mid-sleep when a run is stopped or fails, and simply
			// finishes before one that deadlocks.
			e.Go("sleeper", func(p *Proc) {
				defer func() { deferred += 100 }()
				p.Sleep(20 * Nanosecond)
			})
			tc.end(e)
			got := ""
			if err := e.Run(); err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Errorf("Run = %q\nwant %q", got, tc.want)
			}
			if deferred != 101 || resumed {
				t.Errorf("deferred functions ran %d times (want 101: once each), body resumed=%v", deferred, resumed)
			}
			settled(t, base)
		})
	}

	t.Run("never started", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := NewEngine()
		e.At(0, e.Stop) // queued ahead of the start event
		ran := false
		e.Go("late", func(p *Proc) { ran = true })
		if err := e.Run(); err != nil || ran {
			t.Errorf("Run = %v, body ran=%v; want nil and a body that never ran", err, ran)
		}
		settled(t, base)
	})
}

// goid is the id of the calling goroutine, from its stack header.
func goid() string {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	return string(f[1])
}

// phasedWorld runs 16 processes through four phases; in phase k process i
// meets partner i^(1<<k) for a number of rounds, so every phase re-pairs the
// world and every process changes epoch groups. It returns the emission
// transcript, the stats, and the largest number of distinct goroutines that
// dispatched any one process (from callbacks each process plants in its own
// group, counted only in the epoch that resumed it).
func phasedWorld(t *testing.T, workers int) (string, Stats, int) {
	const n, phases, rounds = 16, 4, 200
	e := NewEngine()
	e.SetWorkers(workers)
	var log []string
	e.SetEmitter(func(payload any) { log = append(log, payload.(string)) })
	res := func(id int) Res { return Res(1 + id) }
	procs := make([]*Proc, n)
	var told [n][phases]int
	var partner [n]int
	var dispatchers [n]map[string]bool
	for id := range procs {
		partner[id] = id ^ 1
		dispatchers[id] = map[string]bool{}
		procs[id] = e.Go(fmt.Sprint("p", id), func(p *Proc) {
			for ph := 0; ph < phases; ph++ {
				peer := id ^ (1 << ph)
				partner[id] = peer
				if !p.CanTouch(res(peer)) {
					p.YieldRegroup()
				}
				for r := 0; r < rounds; r++ {
					p.Sleep(Time(1+id%3) * Nanosecond)
					epoch := e.EpochID()
					e.AtRes(p.Now(), func() {
						if e.EpochID() == epoch {
							dispatchers[id][goid()] = true
						}
					}, res(id))
					told[id][ph]++
					procs[peer].UnparkAt(p.Now())
					for told[peer][ph] <= r {
						p.Park()
					}
					p.Emit(fmt.Sprintf("%d.%d.%d@%v", id, ph, r, p.Now()))
				}
			}
		})
		procs[id].SetRes(res(id))
		procs[id].SetFootprint(func(buf []Res) []Res { return append(buf, res(id), res(partner[id])) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != n*phases*rounds {
		t.Fatalf("%d emissions, want %d", len(log), n*phases*rounds)
	}
	most := 0
	for _, d := range dispatchers {
		most = max(most, len(d))
	}
	st := e.Stats()
	st.BarrierStalls = 0 // the one deliberately width-dependent counter
	return strings.Join(log, " "), st, most
}

// TestProcResumedByDifferentWorkers: a process's coroutine is not tied to the
// goroutine that resumed it last. In a world that re-pairs between phases a
// process changes groups, and at width 4 its successive resumes come from
// different pool goroutines; transcript and stats must equal width 1. Run
// under -race (CI "Coroutine stress"): a bug here depends on the host
// schedule.
func TestProcResumedByDifferentWorkers(t *testing.T) {
	log1, st1, most1 := phasedWorld(t, 1)
	if most1 != 1 {
		t.Fatalf("width 1: a process was dispatched by %d goroutines, want 1", most1)
	}
	if st1.MaxBatchWidth < 4 || st1.RegroupYields == 0 || st1.ParallelBatches < 16 {
		t.Fatalf("world too narrow, too static or too short to mean anything: %+v", st1)
	}
	moved := false
	for try := 0; try < 10 && !moved; try++ {
		log4, st4, most4 := phasedWorld(t, 4)
		moved = most4 > 1
		if st1 != st4 {
			t.Fatalf("stats diverge:\n w1: %+v\n w4: %+v", st1, st4)
		}
		if log1 != log4 {
			t.Fatal("transcript diverges between widths 1 and 4")
		}
	}
	if !moved {
		t.Error("in 10 runs at width 4 no process was ever resumed by two different goroutines: the test exercised nothing")
	}
}
