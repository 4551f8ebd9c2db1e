package sim

import (
	"errors"
	"slices"
	"testing"
)

// bothWorlds runs a quiesce case twice: once as is, and once with every proc
// calling the resource shims (SetRes, SetFootprint), which the benchmark's
// drivers still call and which must change nothing.
func bothWorlds(t *testing.T, body func(t *testing.T, own func(p *Proc, r Res))) {
	t.Run("nothing declared", func(t *testing.T) {
		body(t, func(*Proc, Res) {})
	})
	t.Run("every proc declares", func(t *testing.T) {
		body(t, func(p *Proc, r Res) {
			p.SetRes(r)
			p.SetFootprint(func(buf []Res) []Res { return append(buf, r) })
		})
	})
}

// A quiesce callback fires only once the queue drains — after every pending
// event, including ones scheduled later in virtual time than the callback's
// registration point.
func TestAtQuiesceFiresAtDrain(t *testing.T) {
	bothWorlds(t, func(t *testing.T, own func(*Proc, Res)) {
		e := NewEngine()
		var order []string
		p := e.Go("worker", func(p *Proc) {
			order = append(order, "start")
			p.Sleep(10 * Microsecond)
			order = append(order, "slept")
		})
		own(p, 1)
		e.AtQuiesce(func() { order = append(order, "quiesce") })
		e.At(5*Microsecond, func() { order = append(order, "callback") })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := []string{"start", "callback", "slept", "quiesce"}
		if !slices.Equal(order, want) {
			t.Fatalf("order = %v, want %v", order, want)
		}
	})
}

// A quiesce callback that wakes a parked process resumes dispatch: the run is
// not a deadlock, later quiesce callbacks wait for the next drain, and Now in
// the callback is the time of the last event dispatched before the drain.
func TestAtQuiesceReleasesParkedProc(t *testing.T) {
	bothWorlds(t, func(t *testing.T, own func(*Proc, Res)) {
		e := NewEngine()
		released := false
		var resumedAt Time
		p := e.Go("waiter", func(pp *Proc) {
			for !released {
				pp.Park()
			}
			resumedAt = pp.Now()
		})
		own(p, 1)
		own(e.Go("other", func(pp *Proc) { pp.Sleep(3 * Microsecond) }), 2)
		e.AtQuiesce(func() {
			released = true
			p.UnparkAt(e.Now() + Microsecond)
		})
		fired2 := false
		e.AtQuiesce(func() { fired2 = true })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if !released || !fired2 {
			t.Fatalf("released=%v fired2=%v, want both true", released, fired2)
		}
		if resumedAt != 4*Microsecond {
			t.Fatalf("resumedAt = %v, want 4us (drain time 3us + 1us)", resumedAt)
		}
	})
}

// The same holds in a world where only one proc calls the resource shims.
func TestAtQuiesceMixedWorld(t *testing.T) {
	e := NewEngine()
	const rcount = Res(1)
	released := false
	var p *Proc
	p = e.Go("waiter", func(pp *Proc) {
		for !released {
			pp.Park()
		}
	})
	p.SetRes(rcount)
	p.SetFootprint(func(dst []Res) []Res { return append(dst, rcount) })
	e.Go("other", func(pp *Proc) { pp.Sleep(2 * Microsecond) })
	e.AtQuiesce(func() {
		released = true
		p.UnparkAt(e.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !released {
		t.Fatal("quiesce callback never fired")
	}
}

// A quiesce callback that does NOT release parked processes still surfaces the
// deadlock.
func TestAtQuiesceDeadlockStillReported(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) { p.Park() })
	fired := false
	e.AtQuiesce(func() { fired = true })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if !fired {
		t.Fatal("quiesce callback did not fire before the deadlock was reported")
	}
}

// A pending background alarm must not hold back quiescence: the callback
// fires at the message-flow drain, with the alarm still queued, and the alarm
// itself still fires at its own time afterwards.
func TestAtQuiesceIgnoresBackgroundAlarms(t *testing.T) {
	bothWorlds(t, func(t *testing.T, own func(*Proc, Res)) {
		e := NewEngine()
		const alarmAt = Millisecond
		var quiesceAt, alarmFiredAt Time = -1, -1
		var order []string
		released := false
		p := e.Go("waiter", func(pp *Proc) {
			pp.Sleep(3 * Microsecond)
			for !released {
				pp.Park()
			}
			// Sleep past the alarm so the run does not end before it fires.
			pp.Sleep(2 * alarmAt)
		})
		own(p, 1)
		e.AtBackground(alarmAt, func() {
			order = append(order, "alarm")
			alarmFiredAt = e.Now()
		})
		e.AtQuiesce(func() {
			order = append(order, "quiesce")
			quiesceAt = e.Now()
			released = true
			p.UnparkAt(e.Now())
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if want := []string{"quiesce", "alarm"}; !slices.Equal(order, want) {
			t.Errorf("order = %v, want %v", order, want)
		}
		if quiesceAt != 3*Microsecond {
			t.Errorf("quiesce fired at %v, want 3us (before the %v alarm)", quiesceAt, Time(alarmAt))
		}
		if alarmFiredAt != alarmAt {
			t.Errorf("background alarm fired at %v, want %v", alarmFiredAt, Time(alarmAt))
		}
	})
}
