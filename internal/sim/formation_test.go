package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// idle is a machine that is never stepped: formation tests only need procs
// with pending events and footprints.
type idle struct{}

func (idle) Step(*Proc) Flow { return Done }

// formEvent is the test's view of one pending event: its key, a stable
// identity, and the resources it touches.
type formEvent struct {
	t   Time
	seq uint64
	id  int
	res []Res
}

// pendingEvents snapshots the engine's global queue before formation.
// Callback identities are their AtArg argument, proc identities are offset by
// procBase.
func pendingEvents(e *Engine, fps [][]Res, procBase int) []formEvent {
	var evs []formEvent
	for _, k := range e.q.keys {
		ev := e.q.slab[k.slot]
		fe := formEvent{t: k.t, seq: k.seq}
		switch {
		case ev.proc != nil:
			fe.id = procBase + ev.proc.id
			fe.res = fps[ev.proc.id]
		default:
			fe.id = ev.arg.(int)
			fe.res = ev.res[:ev.nres]
		}
		if len(fe.res) == 0 {
			fe.res = []Res{Global}
		}
		evs = append(evs, fe)
	}
	slices.SortFunc(evs, func(a, b formEvent) int {
		return hkey{t: a.t, seq: a.seq}.compare(hkey{t: b.t, seq: b.seq})
	})
	return evs
}

// naiveGroups is the quadratic reference: events sharing a resource join the
// same group (relabel until nothing changes); groups are numbered by their
// first event in (t, seq) order.
func naiveGroups(evs []formEvent) []int {
	label := make([]int, len(evs))
	for i := range label {
		label[i] = i
	}
	for changed := true; changed; {
		changed = false
		for i := range evs {
			for j := range evs {
				if label[i] != label[j] && slices.ContainsFunc(evs[i].res, func(r Res) bool { return slices.Contains(evs[j].res, r) }) {
					lo := min(label[i], label[j])
					label[i], label[j] = lo, lo
					changed = true
				}
			}
		}
	}
	index := map[int]int{}
	out := make([]int, len(evs))
	for i, l := range label {
		if _, ok := index[l]; !ok {
			index[l] = len(index)
		}
		out[i] = index[l]
	}
	return out
}

// TestFormEpochMatchesNaiveReference feeds random footprints and tagged
// callbacks through several consecutive formations of one engine — so stamps,
// recycled groups and table growth are all in play — and checks membership,
// group index order, queue order and resource ownership against naiveGroups.
func TestFormEpochMatchesNaiveReference(t *testing.T) {
	const procBase = 1 << 20
	rng := rand.New(rand.NewSource(12))
	randRes := func(universe int) []Res {
		res := make([]Res, rng.Intn(5))
		for i := range res {
			res[i] = Res(rng.Intn(universe))
			if rng.Intn(40) == 0 {
				res[i] = Res(1000 + rng.Intn(100000)) // sparse: forces table growth
			}
		}
		return res
	}
	for trial := 0; trial < 200; trial++ {
		e := NewEngine()
		universe := 2 + rng.Intn(12)
		fps := make([][]Res, rng.Intn(10))
		for i := range fps {
			p := e.GoMachine(fmt.Sprint("p", i), idle{})
			if rng.Intn(6) > 0 { // the rest keep a nil footprint: Global
				p.SetFootprint(func(buf []Res) []Res { return append(buf, fps[i]...) })
			}
		}
		nextID := 0
		for epoch := 0; epoch < 4; epoch++ {
			for i := range fps {
				if e.procs[i].footprint != nil {
					fps[i] = randRes(universe)
				}
			}
			for n := rng.Intn(12); n > 0 || e.q.len() == 0; n-- {
				e.AtArg(Time(rng.Intn(6)), func(any) {}, nextID, randRes(universe)...)
				nextID++
			}
			evs := pendingEvents(e, fps, procBase)
			want := naiveGroups(evs)

			e.formEpoch()
			ngroups := 1 + slices.Max(want)
			if e.ngroups != ngroups {
				t.Fatalf("trial %d epoch %d: %d groups, want %d", trial, epoch, e.ngroups, ngroups)
			}
			if inPlace := e.groups[0].q == &e.q; inPlace != (ngroups == 1) {
				t.Fatalf("trial %d epoch %d: in place %v with %d groups", trial, epoch, inPlace, ngroups)
			}
			for gi, g := range e.groups[:e.ngroups] {
				if g.idx != gi {
					t.Fatalf("group %d carries idx %d", gi, g.idx)
				}
				var wantKeys, gotKeys []hkey
				for i, ev := range evs {
					if want[i] == gi {
						wantKeys = append(wantKeys, hkey{t: ev.t, seq: ev.seq})
						for _, r := range ev.res {
							if e.groupFor(r) != g {
								t.Fatalf("trial %d epoch %d: resource %d of group %d is owned by group %d", trial, epoch, r, gi, e.groupFor(r).idx)
							}
						}
					}
				}
				for i, k := range g.q.keys {
					if i > 0 && k.before(g.q.keys[(i-1)/heapArity]) {
						t.Fatalf("group %d: heap property broken at %d", gi, i)
					}
					ev := g.q.slab[k.slot]
					id := procBase
					if ev.proc != nil {
						id += ev.proc.id
					} else {
						id = ev.arg.(int)
					}
					if j := slices.IndexFunc(evs, func(fe formEvent) bool { return fe.id == id }); evs[j].t != k.t || evs[j].seq != k.seq {
						t.Fatalf("group %d: key (%v,%d) points at event %d, whose key is (%v,%d)", gi, k.t, k.seq, id, evs[j].t, evs[j].seq)
					}
					gotKeys = append(gotKeys, hkey{t: k.t, seq: k.seq})
				}
				slices.SortFunc(gotKeys, func(a, b hkey) int {
					if a.before(b) {
						return -1
					}
					return 1
				})
				if !slices.Equal(gotKeys, wantKeys) {
					t.Fatalf("trial %d epoch %d group %d: events %v, want %v", trial, epoch, gi, gotKeys, wantKeys)
				}
			}
			// An unclaimed resource routes to Global's group when one exists.
			const unclaimed = Res(1 << 18)
			if globalOwned := slices.ContainsFunc(evs, func(fe formEvent) bool { return slices.Contains(fe.res, Global) }); globalOwned {
				if e.groupFor(unclaimed) != e.groupFor(Global) {
					t.Fatalf("trial %d epoch %d: unclaimed resource did not fall back to Global's group", trial, epoch)
				}
			} else if !panics(func() { e.groupFor(unclaimed) }) {
				t.Fatalf("trial %d epoch %d: unclaimed resource resolved without a Global group", trial, epoch)
			}
			e.commitEpoch() // nothing ran: every event is a leftover
			if e.q.len() != len(evs) {
				t.Fatalf("trial %d epoch %d: commit kept %d of %d events", trial, epoch, e.q.len(), len(evs))
			}
		}
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// ticker is a flat proc that wakes its partner (often stale or coalesced),
// emits, parks until its own pooled-argument callback wakes it, then sleeps,
// then yields to the next epoch, round and round until told to stop.
type ticker struct {
	self, peer **Proc
	res        Res
	stop       *bool
	payload    any
	wakeAt     Time
	phase      int
}

func tickCallback(arg any) {
	m := arg.(*ticker)
	(*m.self).UnparkAt(m.wakeAt)
}

func (m *ticker) turn(p *Proc) {
	(*m.peer).UnparkAt(p.Now())
	p.Emit(m.payload)
	m.wakeAt = p.Now() + Nanosecond
	p.Engine().AtArg(m.wakeAt, tickCallback, m, m.res)
}

func (m *ticker) Step(p *Proc) Flow {
	if *m.stop {
		return Done
	}
	switch m.phase = (m.phase + 1) % 3; m.phase {
	case 1:
		m.turn(p)
		p.Park()
	case 2:
		p.Sleep(Nanosecond)
	default:
		p.YieldRegroup()
	}
	return More
}

// steadyWorld builds pairs of procs — machines (flat) or blocking bodies —
// that keep every engine path busy forever: timers, parks and wakes, regroup
// yields, emissions, tagged pooled callbacks. shared=false gives each pair its
// own resources (wide epochs through the group queues); shared=true declares
// Global everywhere (one group, dispatched in place).
func steadyWorld(flat, shared bool, workers int, stop *bool) *Engine {
	e := NewEngine()
	e.SetWorkers(workers)
	e.SetEmitter(func(any) {})
	const pairs = 6
	procs := make([]*Proc, 2*pairs)
	for id := range procs {
		a, b := Res(1+id), Res(1+(id^1))
		if shared {
			a, b = Global, Global
		}
		m := &ticker{self: &procs[id], peer: &procs[id^1], res: a, stop: stop, payload: new(int)}
		if flat {
			procs[id] = e.GoMachine(fmt.Sprint("m", id), m)
		} else {
			procs[id] = e.Go(fmt.Sprint("g", id), func(p *Proc) {
				for !*stop {
					m.turn(p)
					p.Park()
					p.Sleep(Nanosecond)
					p.YieldRegroup()
				}
			})
		}
		procs[id].SetRes(a)
		procs[id].SetFootprint(func(buf []Res) []Res { return append(buf, a, b) })
	}
	return e
}

// TestSteadyStateEpochAllocatesNothing warms an engine until its tables,
// group pool, queues and scratch have reached working size, then requires
// whole epochs — formation, execution, commit, emission flush — to allocate
// nothing, for both proc kinds, both epoch shapes and both dispatch paths.
func TestSteadyStateEpochAllocatesNothing(t *testing.T) {
	for _, flat := range []bool{true, false} {
		for _, shared := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("flat=%v/shared=%v/w%d", flat, shared, workers), func(t *testing.T) {
					stop := false
					e := steadyWorld(flat, shared, workers, &stop)
					for i := 0; i < 64; i++ {
						e.stepEpoch()
					}
					before := e.Stats()
					if got := testing.AllocsPerRun(100, e.stepEpoch); got != 0 {
						t.Errorf("%v allocations per steady-state epoch, want 0", got)
					}
					st := e.Stats()
					if st.Dispatched-before.Dispatched < 100*12 {
						t.Errorf("measured epochs dispatched only %d events", st.Dispatched-before.Dispatched)
					}
					if wide := st.MaxBatchWidth > 1; wide == shared {
						t.Errorf("MaxBatchWidth = %d with shared=%v", st.MaxBatchWidth, shared)
					}
					stop = true
					if err := e.Run(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestSparseResIDsWidthInvariant runs disjoint pairs whose resource ids sit
// far apart at the top of a 64 Ki range — the dense table has to grow to
// cover them, and nearly all of its rows stay dead — and requires Stats and
// the emission stream to be identical at widths 1 and 4.
func TestSparseResIDsWidthInvariant(t *testing.T) {
	run := func(workers int) (string, Stats) {
		e := NewEngine()
		e.SetWorkers(workers)
		var emitted []string
		e.SetEmitter(func(p any) { emitted = append(emitted, p.(string)) })
		const pairs = 5
		procs := make([]*Proc, 2*pairs)
		for id := range procs {
			res := func(id int) Res { return Res(1<<16 - 1 - 4099*id) }
			procs[id] = e.Go(fmt.Sprint("p", id), func(p *Proc) {
				for r := 0; r < 600; r++ {
					p.Advance(Time(1+id/2) * Nanosecond)
					if (r+id)%2 == 0 {
						procs[id^1].UnparkAt(p.Now())
						p.Park()
					}
					p.Emit(fmt.Sprintf("p%d r%d @%v", id, r, p.Now()))
					e.AtRes(p.Now()+Nanosecond, func() {}, res(id))
					if !p.CanTouch(res(id^1)) || p.CanTouch(res(id^3)) {
						t.Errorf("p%d: wrong ownership of the sparse ids", id)
					}
				}
				procs[id^1].UnparkAt(p.Now()) // never strand the partner
			})
			procs[id].SetRes(res(id))
			procs[id].SetFootprint(func(buf []Res) []Res { return append(buf, res(id), res(id^1)) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(e.resTab) != 1<<16 {
			t.Fatalf("resource table has %d rows; the ids did not exercise growth", len(e.resTab))
		}
		st := e.Stats()
		st.BarrierStalls = 0 // the one deliberately width-dependent counter
		return strings.Join(emitted, "\n"), st
	}
	emit1, st1 := run(1)
	emit4, st4 := run(4)
	if st1.MaxBatchWidth < 5 || st1.ParallelBatches < 4 {
		t.Fatalf("world too narrow or too short to mean anything: %+v", st1)
	}
	if st1 != st4 {
		t.Errorf("stats diverge:\n w1: %+v\n w4: %+v", st1, st4)
	}
	if emit1 != emit4 {
		t.Error("emission order diverges between widths 1 and 4")
	}
}

// TestNegativeResRejected: ids index the dense table, so a negative one must
// fail loudly and identically wherever it enters.
func TestNegativeResRejected(t *testing.T) {
	expect := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			if got := fmt.Sprint(recover()); !strings.Contains(got, want) {
				t.Errorf("%s: panic %q, want it to contain %q", name, got, want)
			}
		}()
		fn()
	}
	e := NewEngine()
	p := e.GoMachine("p", idle{})
	expect("SetRes", "negative resource id -3 in SetRes", func() { p.SetRes(-3) })
	expect("AtRes", "negative resource id -1 in AtRes", func() { e.AtRes(0, func() {}, 2, -1) })
	expect("AtArg", "negative resource id -7 in AtArg", func() { e.AtArg(0, func(any) {}, nil, -7) })
	p.SetFootprint(func(buf []Res) []Res { return append(buf, 1, -2) })
	expect("footprint", `negative resource id -2 in the footprint of proc "p"`, func() { _ = e.Run() })
}
