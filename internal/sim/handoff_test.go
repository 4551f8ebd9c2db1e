package sim

import (
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

// TestHandoffsSleeperAcrossCallbacks: the worker hands the baton to the
// process once; the sleeping process pops every callback and its own timer
// itself, and hands the baton back when the queue is empty.
func TestHandoffsSleeperAcrossCallbacks(t *testing.T) {
	const k = 40
	e := NewEngine()
	ran := 0
	for i := 1; i <= k; i++ {
		e.At(Time(i)*Nanosecond, func() { ran++ })
	}
	e.Go("sleeper", func(p *Proc) { p.Sleep((k + 1) * Nanosecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if ran != k || st.Callbacks != k || st.Resumes != 2 {
		t.Fatalf("ran %d callbacks; stats %+v", ran, st)
	}
	if st.Handoffs != 2 {
		t.Errorf("Handoffs = %d, want 2 (worker -> proc, proc -> worker)", st.Handoffs)
	}
}

// pingPong spawns two processes that pass a turn back and forth n times each
// through Park/UnparkAt; b parks before a takes the first turn, so no wake is
// ever spurious and every resume but the two starts is one process resuming
// the other.
func pingPong(e *Engine, n int) {
	turn := 0
	var procs [2]*Proc
	for id := range procs {
		procs[id] = e.Go(fmt.Sprint("p", id), func(p *Proc) {
			if id == 0 {
				p.Sleep(Nanosecond)
			}
			for r := 0; r < n; r++ {
				for turn != id {
					p.Park()
				}
				turn = 1 - id
				procs[1-id].UnparkAt(p.Now() + Nanosecond)
			}
		})
	}
}

// TestHandoffsPingPong: every resume is one switch — from the worker for the
// first of an epoch, from the other process otherwise — and every epoch ends
// with one switch back to the worker.
func TestHandoffsPingPong(t *testing.T) {
	const n = 500
	e := NewEngine()
	pingPong(e, n)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	// Two starts, a's timer, n wakes for b, n-1 for a (the last finds a done).
	if st.Resumes != 2*n+2 || st.Dispatched != st.Resumes || st.ParallelBatches != 4 {
		t.Fatalf("unexpected world shape: %+v", st)
	}
	if st.Handoffs != 2*n+2+4 {
		t.Errorf("Handoffs = %d, want %d (one per resume plus one per epoch)", st.Handoffs, 2*n+2+4)
	}
}

// TestHandoffsLoneProcPerGroup: a process alone in its footprint group
// resumes itself; each group costs two switches per epoch — in and out —
// whatever the dispatch width.
func TestHandoffsLoneProcPerGroup(t *testing.T) {
	const procs, sleeps = 4, 1000
	run := func(workers int) Stats {
		e := NewEngine()
		e.SetWorkers(workers)
		for i := 0; i < procs; i++ {
			own(e.Go(fmt.Sprint("p", i), func(p *Proc) {
				for k := 0; k < sleeps; k++ {
					p.Sleep(Nanosecond)
				}
			}), Res(i+1))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		st.BarrierStalls = 0 // the one deliberately width-dependent counter
		return st
	}
	st1, st4 := run(1), run(4)
	if st1.MaxBatchWidth != procs || st1.Resumes != procs*(sleeps+1) {
		t.Fatalf("unexpected world shape: %+v", st1)
	}
	if want := 2 * procs * st1.ParallelBatches; st1.Handoffs != want {
		t.Errorf("Handoffs = %d, want %d (2 per group per epoch, %d epochs)", st1.Handoffs, want, st1.ParallelBatches)
	}
	if st1 != st4 {
		t.Errorf("stats diverge between widths:\n w1: %+v\n w4: %+v", st1, st4)
	}
}

// recovered runs fn and returns what it panicked with (nil if it returned).
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestCallbackPanicSurfacesFromRun: a panic raised by the dispatch loop while
// it runs on a sleeping process's goroutine is the loop's, not the process's:
// it must come out of Run on the caller's goroutine with its original value,
// not be recorded as that process's failure.
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
// callback, or by a process panic — each while a sleeping process's goroutine
// is the one dispatching — returns from Run with the error it always had.
func TestRunEndsWhileAProcHoldsTheBaton(t *testing.T) {
	cases := []struct {
		name string
		end  func(e *Engine) // ends the run at 5ns, on the sleeper's goroutine
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
// the partner, park until it has told too — collects their emissions in *log,
// and returns the processes.
func wakeRing(e *Engine, n int, log *[]string) []*Proc {
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
	return procs
}

// TestGoroutinesExitAfterRun: a finished process's goroutine exits once it
// has passed the baton on, and the pool workers are stopped: after a clean
// run the goroutine count is back where it started.
func TestGoroutinesExitAfterRun(t *testing.T) {
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
	// A goroutine's last send completes before its exit does: give it a moment.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// TestReleasedChannelsAreQuiet runs engines back to back so that each draws
// its resume channels from the pool the previous one's finished processes
// filled: a finished goroutine still touching its released channel would
// steal or fake a hand-off in the next engine (and trip the race detector).
func TestReleasedChannelsAreQuiet(t *testing.T) {
	seen := map[chan struct{}]bool{}
	reused, first := 0, ""
	for round := 0; round < 8; round++ {
		e := NewEngine()
		var log []string
		for _, p := range wakeRing(e, 16, &log) {
			if seen[p.resume] {
				reused++
			}
			seen[p.resume] = true
		}
		if err := e.Run(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := strings.Join(log, " ")
		if round == 0 {
			first = got
		} else if got != first {
			t.Fatalf("round %d diverged:\n%s\nwant:\n%s", round, got, first)
		}
	}
	if reused == 0 {
		t.Fatal("no channel was ever reused: the test exercised nothing")
	}
}
