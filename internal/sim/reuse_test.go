package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// handOut takes the idle coroutines of e, whose run is over. Each must come
// out holding no body and a zero Proc.
func handOut(t *testing.T, e *Engine) []*Coro {
	t.Helper()
	var idle []*Coro
	for c := e.Idle(); c != nil; c = e.Idle() {
		if !c.Empty() {
			t.Fatalf("an idle coroutine was handed out with a body or a process: %+v", c.p)
		}
		idle = append(idle, c)
	}
	return idle
}

// endIdle ends every idle coroutine e holds and reports how many there were.
func endIdle(e *Engine) int {
	n := 0
	for c := e.Idle(); c != nil; c = e.Idle() {
		c.End()
		n++
	}
	return n
}

// TestCoroutineReuseStartsFresh: the coroutines of a run's bodies that
// returned serve the next engine's bodies. Each starts with the Proc a new
// coroutine would have — id, name, clock, wake anchors and failure of its
// own, none of the last body's — and the world on them logs byte for byte
// what it logs on new coroutines. Once the second engine's idle coroutines
// and the one it did not use end, no goroutine is left.
func TestCoroutineReuseStartsFresh(t *testing.T) {
	base := runtime.NumGoroutine()
	var want []string
	ref := NewEngine()
	wakeRing(ref, 16, &want)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	first := NewEngine()
	first.KeepIdle()
	first.Go("lead", func(p *Proc) {}) // shifts the ring's ids up by one
	var log []string
	wakeRing(first, 16, &log)
	if err := first.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range first.procs[1:] {
		if p.now == 0 || p.lastWakeAt == 0 || p.state != stateDone {
			t.Fatalf("the first run left %s at %v, last woken at %v, %s: want a clock, a wake anchor and done", p.name, p.now, p.lastWakeAt, p.state)
		}
	}
	idle := handOut(t, first)
	if len(idle) != 17 {
		t.Fatalf("the first run left %d idle coroutines, want 17", len(idle))
	}

	next := NewEngine()
	next.KeepIdle()
	var got []string
	wakeRingOn(next, idle[:16], 16, &got)
	for i, p := range next.procs {
		if p.co != idle[i] || p != &p.co.p {
			t.Fatalf("process %d does not run in the Proc of the coroutine it was given", i)
		}
		fresh := Proc{eng: next, id: int32(i), name: fmt.Sprint("p", i), state: stateScheduled, co: p.co, timerSeq: p.timerSeq}
		if *p != fresh {
			t.Errorf("process %d starts as %+v, want %+v", i, *p, fresh)
		}
	}
	if err := next.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("the world on reused coroutines logged\n%s\nwant\n%s", strings.Join(got, " "), strings.Join(want, " "))
	}
	again := handOut(t, next)
	if len(again) != 16 || slices.ContainsFunc(again, func(c *Coro) bool { return !slices.Contains(idle[:16], c) }) {
		t.Errorf("the second run handed out %d idle coroutines, want the 16 it was given", len(again))
	}
	for _, c := range append(again, idle[16]) {
		c.End()
	}
	settled(t, base)
}

// TestCoroutineReuseEndsWhatDidNotReturn: on an engine that keeps its idle
// coroutines and runs its bodies on reused ones, a body that panics, calls
// Fatalf or Fail, or is reaped when the run deadlocks or stops ends its
// coroutine as on a new one; only the body that returned leaves its
// coroutine idle, and once that one ends no goroutine is left.
func TestCoroutineReuseEndsWhatDidNotReturn(t *testing.T) {
	cases := []struct {
		name string
		bad  func(p *Proc) // blocks at 5ns, then does not return
		stop bool          // a callback stops the run at 5ns
		want string        // substring of Run's error; "" for nil
	}{
		{"panic", func(p *Proc) { p.Sleep(5 * Nanosecond); panic("kaboom") }, false, `proc "bad" panicked: kaboom`},
		{"Fatalf", func(p *Proc) { p.Sleep(5 * Nanosecond); p.Fatalf("invariant broken") }, false, "invariant broken"},
		{"Fail", func(p *Proc) { p.Sleep(5 * Nanosecond); p.Fail(errors.New("lost")) }, false, "lost"},
		// Fail(nil) records no failure, so the run goes on to deadlock on
		// "stuck"; the body still did not return.
		{"Fail(nil)", func(p *Proc) { p.Sleep(5 * Nanosecond); p.Fail(nil) }, false, "simulation deadlock"},
		{"deadlock", func(p *Proc) { p.Sleep(5 * Nanosecond); p.Park() }, false, "simulation deadlock"},
		{"Stop", func(p *Proc) { p.Sleep(10 * Nanosecond) }, true, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			warm := NewEngine()
			warm.KeepIdle()
			for range 3 {
				warm.Go("warm", func(p *Proc) {})
			}
			if err := warm.Run(); err != nil {
				t.Fatal(err)
			}
			idle := handOut(t, warm)
			e := NewEngine()
			e.KeepIdle()
			e.GoOn(idle[0], "done", func(p *Proc) { p.Sleep(Nanosecond) })
			e.GoOn(idle[1], "bad", tc.bad)
			e.GoOn(idle[2], "stuck", func(p *Proc) { p.Park() })
			if tc.stop {
				e.At(5*Nanosecond, e.Stop)
			}
			err := e.Run()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("Run = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("Run = %v, want it to contain %q", err, tc.want)
			}
			settled(t, base+1)
			if n := endIdle(e); n != 1 {
				t.Errorf("the run kept %d idle coroutines, want 1: the body that returned", n)
			}
			settled(t, base)
		})
	}
}

// TestCoroutineReuseAllocs: on a warm engine — built on the arrays of the
// last one, its bodies on the last one's idle coroutines — spawning and
// running blocking bodies allocates nothing per body: a world of 32 costs
// what a world of one does, the engine and the arrays it hands on.
func TestCoroutineReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var a *Arrays
	idle := make([]*Coro, 0, 32)
	world := func(n int) {
		e := NewEngineOn(a)
		e.KeepIdle()
		e.Grow(n)
		for i := range n {
			var c *Coro
			if i < len(idle) {
				c = idle[i]
			}
			e.GoOn(c, "p", func(p *Proc) { p.Sleep(Nanosecond) })
		}
		for _, c := range idle[min(n, len(idle)):] {
			c.End() // no body of this world took it
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		idle = idle[:0]
		for c := e.Idle(); c != nil; c = e.Idle() {
			idle = append(idle, c)
		}
		a = e.Recycle()
	}
	world(32)
	all := testing.AllocsPerRun(20, func() { world(32) })
	one := testing.AllocsPerRun(20, func() { world(1) })
	if all != one || all > 2 {
		t.Errorf("a warm world of 32 bodies makes %v allocations, one of 1 body %v: want at most 2, none per body", all, one)
	}
	for _, c := range idle {
		c.End()
	}
}
