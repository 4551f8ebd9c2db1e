//go:build go1.23

package sim

import "iter"

// Coro is the coroutine blocking bodies run on: the body runs on a goroutine
// of its own, but control moves to it and back by a runtime coroutine switch
// (iter.Pull), which parks the caller and runs the callee on the same thread
// without going through the Go scheduler — no channel, no run queue, no
// wake-up of an idle P. next resumes the body until it blocks
// (Proc.switchOut calls yield) or ends; stop ends a coroutine that is not
// running: a body that never started never runs, one suspended in yield sees
// it return false.
//
// One coroutine runs one body per turn (loop), and holds the Proc of the
// body it runs. A body that returns leaves it idle: parked in yield, with no
// body, until the engine that ran it hands it out (Engine.Idle), its Proc
// zeroed, and another gives it the next body (Engine.GoOn). A body that
// panics (Fatalf and Fail too) or is reaped ends its coroutine, goroutine
// and all. An idle coroutine nobody will give a body must be ended (End):
// its parked goroutine is a garbage-collector root.
//
// This file is the one place that needs Go 1.23 (go.mod says 1.22 because
// bench/go.mod does); coro_oldgo.go says so to an older toolchain.
type Coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// body is the body of the present turn, nil while the coroutine is idle.
	body func(p *Proc)
	p    Proc
}

// newCoro returns a coroutine with no body. Nothing runs until the first next.
func newCoro() *Coro {
	c := new(Coro)
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// loop is the coroutine's function: run the body, wait idle for the next
// one, repeat, until a body does not return or the coroutine is ended.
func (c *Coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for c.run() && yield(struct{}{}) {
	}
}

// run runs the present body and reports whether it returned: one that
// panicked or was reaped leaves its mark on its process (Proc.finish) and
// ends the coroutine.
func (c *Coro) run() (returned bool) {
	defer c.p.finish()
	c.body(&c.p)
	c.body = nil
	return true
}

// Empty reports whether c holds no body and a zero Proc, as an idle
// coroutine handed out (Engine.Idle) does.
func (c *Coro) Empty() bool { return c.body == nil && c.p == Proc{} }

// End ends an idle coroutine: its goroutine exits. It is how the owner of a
// coroutine no engine will run again lets go of it.
func (c *Coro) End() { c.stop() }
