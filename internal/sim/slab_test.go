package sim

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"
)

// TestEventLayout pins the sizes the slab's bytes follow from: a payload is at
// most 24 bytes, and its flags ride in the key's padding.
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 24 {
		t.Errorf("an event is %d bytes, want <= 24: every pending event of a world is one", size)
	}
	if size := unsafe.Sizeof(hkey{}); size != 24 {
		t.Errorf("a queue key is %d bytes, want 24: the flags must fit in its padding", size)
	}
}

// TestSchedulingAllocatesNothing: At and AtBackground store a prebuilt
// closure behind the callFn trampoline, so scheduling a callback allocates no
// more than AtArg does — nothing, once the queue and the slab have room.
func TestSchedulingAllocatesNothing(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	arg := new(int)
	drain := func() {
		for e.q.len() > 0 {
			e.slab.vacate(e.q.pop().slot)
		}
	}
	for name, schedule := range map[string]func(){
		"At":           func() { e.At(1, fn) },
		"AtBackground": func() { e.AtBackground(1, fn) },
		"AtArg":        func() { e.AtArg(1, func(any) {}, arg) },
	} {
		if got := testing.AllocsPerRun(100, func() { schedule(); drain() }); got != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, got)
		}
	}
}

// doubler is one rank of a recursive-doubling exchange repeated over and over:
// at step s it sends to rank^(1<<(s%log2 n)) through that rank's inbox, waits
// for the partner's message of the same step, then computes for a time that
// depends on its rank, so ranks drift apart and meet again.
type doubler struct {
	rank, step, steps, logN int
	procs                   []*Proc
	inbox                   [][]uint8 // inbox[r][s]: messages rank r received at step s
	waiting                 bool
}

func (d *doubler) partner() int { return d.rank ^ 1<<(d.step%d.logN) }

func (d *doubler) Step(p *Proc) Flow {
	if !d.waiting {
		peer := d.partner()
		d.inbox[peer][d.step]++
		d.procs[peer].UnparkAt(p.Now())
		d.waiting = true
	}
	if d.inbox[d.rank][d.step] == 0 {
		p.Park()
		return More
	}
	d.waiting = false
	d.step++
	if d.step == d.steps {
		return Done
	}
	p.Sleep(Time(1+(d.rank*7+d.step*3)%5) * Nanosecond)
	return More
}

// doublingWorld runs n doubler ranks for rounds full recursive doublings and
// returns the engine.
func doublingWorld(t *testing.T, n, rounds int) *Engine {
	t.Helper()
	e := NewEngine()
	logN := 0
	for 1<<logN < n {
		logN++
	}
	steps := rounds * logN
	procs := make([]*Proc, n)
	inbox := make([][]uint8, n)
	for r := range procs {
		inbox[r] = make([]uint8, steps)
		d := &doubler{rank: r, steps: steps, logN: logN, procs: procs, inbox: inbox}
		procs[r] = e.GoMachine(fmt.Sprint("r", r), d)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

// slabSlots is the number of payload slots the engine's slab allocated.
func slabSlots(e *Engine) int {
	n := 0
	if e.slab.first != nil {
		n = firstSeg
	}
	if e.slab.segs != nil {
		for _, seg := range e.slab.segs {
			n += len(seg)
		}
	}
	return n
}

// TestEventSlotsPerProcStayFlat is the regression test for the term that made
// a world's bytes per rank grow with its rank count: payload storage kept per
// group of an epoch, which grew to the largest group ever formed at its index.
// With one slab per engine, the slots a world hands out per proc do not depend
// on how many procs there are, and the slab holds at most twice the most
// events ever pending.
func TestEventSlotsPerProcStayFlat(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("4096-proc world: skipped under -short and -race")
	}
	var perProc []float64
	for _, n := range []int{256, 1024, 4096} {
		e := doublingWorld(t, n, 3)
		st := e.Stats()
		slots := slabSlots(e)
		perProc = append(perProc, float64(e.slab.next)/float64(n))
		t.Logf("%5d procs: %d slots handed out (%.2f per proc), %d allocated, %d peak pending",
			n, e.slab.next, perProc[len(perProc)-1], slots, st.MaxHeapDepth)
		if slots > 2*st.MaxHeapDepth {
			t.Errorf("%d procs: %d slots allocated for at most %d pending events, want <= 2x", n, slots, st.MaxHeapDepth)
		}
	}
	lo, hi := slices.Min(perProc), slices.Max(perProc)
	if hi > 1.1*lo {
		t.Errorf("slots handed out per proc range over %.2f..%.2f across 256..4096 procs, want within 10 %%", lo, hi)
	}
}

// TestSlotHandOutUnderContention: 128 chains of callbacks each create bursts
// of more events than the first two segments hold, so the slab grows while
// the chains take and return slots in turn. Every event must run once, in its
// chain's time order, and every slot must come back exactly once. (The name
// is kept stable from when groups of an epoch raced each other for slots.)
func TestSlotHandOutUnderContention(t *testing.T) {
	const groups, burst, bursts = 128, 100, 3
	if burst <= 3*firstSeg {
		t.Fatal("a burst must outgrow the first segment")
	}
	e := NewEngine()
	ran := make([][]Time, groups)
	for g := 0; g < groups; g++ {
		left := bursts
		var spawn func(now Time)
		spawn = func(now Time) {
			left--
			for j := 0; j < burst; j++ {
				at := now + Time(1+j%7)*Nanosecond
				last := j == burst-1 && left > 0
				e.At(at, func() {
					ran[g] = append(ran[g], at)
					if last {
						spawn(at)
					}
				})
			}
		}
		e.At(0, func() { spawn(0) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	free := slices.Clone(e.slab.free)
	slices.Sort(free)
	for i, slot := range free {
		if slot != int32(i) {
			t.Fatalf("%d slots handed out, %d returned; first mismatch at %d", e.slab.next, len(free), i)
		}
	}
	if len(free) != int(e.slab.next) {
		t.Fatalf("%d slots handed out, %d returned", e.slab.next, len(free))
	}
	if e.slab.segs == nil || e.slab.segs[2] == nil {
		t.Fatal("the slab never grew past its first segment")
	}
	for g := range ran {
		if len(ran[g]) != bursts*burst {
			t.Fatalf("chain %d ran %d events, want %d", g, len(ran[g]), bursts*burst)
		}
		if !slices.IsSorted(ran[g]) {
			t.Fatalf("chain %d ran its events out of time order", g)
		}
	}
}
