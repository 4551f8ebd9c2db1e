package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps, want 1e12", int64(Second))
	}
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Fatalf("Micros = %v, want 2.5", got)
	}
	if got := FromMicros(1.5); got != 1500*Nanosecond {
		t.Fatalf("FromMicros(1.5) = %v, want 1.5us", got)
	}
	if got := FromSeconds(0.001); got != Millisecond {
		t.Fatalf("FromSeconds(0.001) = %v, want 1ms", got)
	}
	if got := FromNanos(0.25); got != 250*Picosecond {
		t.Fatalf("FromNanos(0.25) = %v, want 250ps", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.500ns"},
		{44 * Microsecond / 100, "440.000ns"},
		{2260 * Nanosecond, "2.260us"},
		{17 * Millisecond, "17.000ms"},
		{3 * Second, "3.000000s"},
		{-Microsecond, "-1.000us"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d ps).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeRoundTripProperty(t *testing.T) {
	f := func(us uint32) bool {
		d := FromMicros(float64(us))
		return d == Time(us)*Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSingleProcRunsToCompletion(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Go("p", func(p *Proc) {
		p.Advance(10 * Microsecond)
		p.Sleep(5 * Microsecond)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 15*Microsecond {
		t.Fatalf("final proc time = %v, want 15us", end)
	}
}

func TestAdvanceFastPathDoesNotYield(t *testing.T) {
	// With only one proc and an empty queue, Advance must not deadlock or
	// require events; 1e6 advances should be cheap clock bumps.
	e := NewEngine()
	e.Go("p", func(p *Proc) {
		for i := 0; i < 1_000_000; i++ {
			p.Advance(Nanosecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 {
		// engine.now only moves on event dispatch; the fast path must not
		// have pushed any events after the start event at t=0.
		t.Fatalf("engine now = %v, want 0 (no events dispatched after start)", e.Now())
	}
}

func TestTwoProcsInterleaveInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	logAt := func(name string, p *Proc) {
		order = append(order, fmt.Sprintf("%s@%v", name, p.Now()))
	}
	e.Go("a", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		logAt("a", p)
		p.Sleep(20 * Nanosecond) // wakes at 30
		logAt("a", p)
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(15 * Nanosecond)
		logAt("b", p)
		p.Sleep(30 * Nanosecond) // wakes at 45
		logAt("b", p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a@10.000ns,b@15.000ns,a@30.000ns,b@45.000ns"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestParkUnparkAdvancesClock(t *testing.T) {
	e := NewEngine()
	done := false
	var waiter *Proc
	e.Go("waiter", func(p *Proc) {
		waiter = p
		for !done {
			p.Park()
		}
		if p.Now() != 100*Nanosecond {
			t.Errorf("waiter clock = %v, want 100ns", p.Now())
		}
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(40 * Nanosecond)
		done = true
		waiter.UnparkAt(100 * Nanosecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("waker never ran")
	}
}

func TestSpuriousUnparkIsBenign(t *testing.T) {
	e := NewEngine()
	var target *Proc
	ready := false
	wakes := 0
	e.Go("target", func(p *Proc) {
		target = p
		for !ready {
			p.Park()
			wakes++
		}
	})
	e.Go("noisy", func(p *Proc) {
		target.UnparkAt(10 * Nanosecond) // spurious: condition not yet true
		target.UnparkAt(20 * Nanosecond) // spurious
		p.Sleep(30 * Nanosecond)
		ready = true
		target.UnparkAt(30 * Nanosecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 3 {
		t.Fatalf("wakes = %d, want 3 (two spurious + one real)", wakes)
	}
}

func TestSleepIsNotCutShortByStaleUnpark(t *testing.T) {
	e := NewEngine()
	var sleeper *Proc
	e.Go("sleeper", func(p *Proc) {
		sleeper = p
		p.Sleep(100 * Nanosecond)
		if p.Now() != 100*Nanosecond {
			t.Errorf("sleep ended at %v, want exactly 100ns", p.Now())
		}
	})
	e.Go("noisy", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		// This unpark fires at t=10 while the sleeper is in a timed sleep;
		// it must be dropped, not end the sleep early.
		sleeper.UnparkAt(10 * Nanosecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) {
		p.Park() // nobody will ever unpark it
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Parked) != 1 || !strings.Contains(dl.Parked[0], "stuck") {
		t.Fatalf("parked = %v, want [stuck...]", dl.Parked)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Go("boom", func(p *Proc) {
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic message", err)
	}
}

func TestFatalfAbortsRun(t *testing.T) {
	e := NewEngine()
	e.Go("bad", func(p *Proc) {
		p.Advance(3 * Nanosecond)
		p.Fatalf("invariant %d broken", 7)
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "invariant 7 broken") {
		t.Fatalf("err = %v, want Fatalf message", err)
	}
	if strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("Fatalf error should not carry a stack dump: %v", err)
	}
}

func TestScheduledCallbacksRunInOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.At(10*Nanosecond, func() { got = append(got, 11) }) // same time: FIFO by seq
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestCallbackSchedulingInPastClamps(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(50*Nanosecond, func() {
		e.At(10*Nanosecond, func() { at = e.Now() }) // in the past: clamps to 50
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 50*Nanosecond {
		t.Fatalf("clamped callback ran at %v, want 50ns", at)
	}
}

func TestDeterministicReplayProperty(t *testing.T) {
	run := func() []string {
		var trace []string
		e := NewEngine()
		var procs []*Proc
		for i := 0; i < 5; i++ {
			i := i
			pp := e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(Time(1+(i*7+j*3)%5) * Nanosecond)
					trace = append(trace, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
					if i > 0 {
						procs[i-1].UnparkAt(p.Now())
					}
				}
			})
			procs = append(procs, pp)
		}
		if err := e.Run(); err != nil {
			if _, ok := err.(*DeadlockError); !ok {
				t.Fatal(err)
			}
		}
		return trace
	}
	first := strings.Join(run(), ";")
	for i := 0; i < 5; i++ {
		if got := strings.Join(run(), ";"); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestClockMonotonicityProperty(t *testing.T) {
	// Property: whatever mix of Sleep/Advance/Park/Unpark happens, each
	// proc's observed clock never goes backward and engine time matches
	// dispatch order.
	f := func(seed uint8) bool {
		e := NewEngine()
		ok := true
		var peers []*Proc
		for i := 0; i < 3; i++ {
			i := i
			peers = append(peers, e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				last := p.Now()
				for j := 0; j < 8; j++ {
					d := Time((int(seed)+i*5+j*11)%7) * Nanosecond
					if j%2 == 0 {
						p.Advance(d)
					} else {
						p.Sleep(d)
					}
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
					peers[(i+1)%len(peers)].UnparkAt(p.Now())
				}
			}))
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsStress(t *testing.T) {
	e := NewEngine()
	const n = 200
	total := 0
	for i := 0; i < n; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Time(i) * Nanosecond)
			total++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("completed %d procs, want %d", total, n)
	}
	if e.Now() != Time(n-1)*Nanosecond {
		t.Fatalf("engine end time %v, want %dns", e.Now(), n-1)
	}
}

func TestHeapOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var h eventQueue
		for i, tt := range times {
			h.push(Time(tt), uint64(i), event{})
		}
		prevT, prevSeq := Time(-1), uint64(0)
		for h.len() > 0 {
			k, _ := h.pop()
			if k.t < prevT {
				return false
			}
			if k.t == prevT && k.seq < prevSeq {
				return false // FIFO among equal times
			}
			prevT, prevSeq = k.t, k.seq
		}
		return len(h.free) == len(h.slab) // every slot vacated
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStats(t *testing.T) {
	e := NewEngine()
	var target *Proc
	e.Go("sleeper", func(p *Proc) {
		target = p
		p.Sleep(10 * Nanosecond)
		p.Park() // woken once below
	})
	e.Go("waker", func(p *Proc) {
		target.UnparkAt(5 * Nanosecond) // stale: sleeper is in a timed sleep
		p.Sleep(20 * Nanosecond)
		target.UnparkAt(p.Now())
	})
	e.At(3*Nanosecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Callbacks != 1 {
		t.Errorf("callbacks = %d, want 1", st.Callbacks)
	}
	if st.StaleWakes == 0 {
		t.Error("expected at least one stale wake")
	}
	if st.Resumes < 4 {
		t.Errorf("resumes = %d, want >= 4 (two starts, two wakes)", st.Resumes)
	}
	if st.Dispatched != st.Callbacks+st.Resumes+st.StaleWakes {
		t.Errorf("stats inconsistent: %+v", st)
	}
}

func TestDuplicateSameTimeWakesCoalesce(t *testing.T) {
	e := NewEngine()
	var target *Proc
	ready := false
	wakes := 0
	e.Go("target", func(p *Proc) {
		target = p
		for !ready {
			p.Park()
			wakes++
		}
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		ready = true
		target.UnparkAt(p.Now())
		target.UnparkAt(p.Now()) // duplicate: same time, must coalesce
		target.UnparkAt(p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 1 {
		t.Errorf("wakes = %d, want 1 (duplicates coalesced)", wakes)
	}
	if st := e.Stats(); st.CoalescedWakes != 2 {
		t.Errorf("coalesced = %d, want 2", st.CoalescedWakes)
	}
}

func TestWakeForFinishedProcIsDropped(t *testing.T) {
	e := NewEngine()
	var target *Proc
	e.Go("short", func(p *Proc) { target = p })
	e.Go("late", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		target.UnparkAt(p.Now()) // target's body already returned
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CoalescedWakes != 1 {
		t.Errorf("coalesced = %d, want 1 (wake for done proc)", st.CoalescedWakes)
	}
}

func TestStatsTrackHeapDepth(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 9; i++ {
		e.At(Time(i)*Nanosecond, func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.MaxHeapDepth != 9 {
		t.Errorf("max heap depth = %d, want 9", st.MaxHeapDepth)
	}
}
