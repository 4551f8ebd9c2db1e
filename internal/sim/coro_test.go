package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

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

// wakeRing spawns n processes in disjoint pairs that meet for eight rounds —
// sleep, tell the partner, park until it has told too — and collects their
// log lines in *log.
func wakeRing(e *Engine, n int, log *[]string) { wakeRingOn(e, nil, n, log) }

// wakeRingOn is wakeRing with process id on coros[id], an idle coroutine,
// where there is one (Engine.GoOn).
func wakeRingOn(e *Engine, coros []*Coro, n int, log *[]string) {
	procs := make([]*Proc, n)
	told := make([]int, n)
	for id := range procs {
		var c *Coro
		if id < len(coros) {
			c = coros[id]
		}
		procs[id] = e.GoOn(c, fmt.Sprint("p", id), func(p *Proc) {
			for r := 0; r < 8; r++ {
				p.Sleep(Time(1+id%3) * Nanosecond)
				told[id]++
				procs[id^1].UnparkAt(p.Now())
				for told[id^1] <= r {
					p.Park()
				}
				*log = append(*log, fmt.Sprintf("%d.%d@%v", id, r, p.Now()))
			}
		})
	}
}

// settled waits for the goroutine count to come back down to base: a reaped
// coroutine's exit completes a moment after the stop that causes it.
func settled(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// TestGoroutinesExitAfterRun: Run leaves no goroutine behind. After a clean
// run every process has finished. After a run
// that deadlocks, is stopped or fails, the processes it left blocked are
// unwound: their deferred functions run once — and cannot block, so a deferred
// collective does not hang the reap — a process that never started never runs,
// and Run returns what it returned when those goroutines stayed parked for
// good.
func TestGoroutinesExitAfterRun(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := NewEngine()
		var log []string
		wakeRing(e, 16, &log)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(log) != 16*8 {
			t.Fatalf("%d log lines, want %d", len(log), 16*8)
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
