//go:build go1.23

package sim

import "iter"

// coro is the coroutine of a goroutine-backed process: the body runs on a
// goroutine of its own, but control moves to it and back by a runtime
// coroutine switch (iter.Pull), which parks the caller and runs the callee
// on the same thread without going through the Go scheduler — no channel,
// no run queue, no wake-up of an idle P. next resumes the body until it
// blocks (Proc.switchOut calls yield) or ends; stop ends a body that is not
// running: one that never started never runs, one suspended in yield sees it
// return false.
//
// This file is the one place that needs Go 1.23 (go.mod says 1.22 because
// bench/go.mod does); coro_oldgo.go says so to an older toolchain.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// newCoro wraps body as p's coroutine. Nothing runs until the first next.
func newCoro(p *Proc, body func(p *Proc)) *coro {
	c := new(coro)
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer p.finish()
		body(p)
	})
	return c
}
