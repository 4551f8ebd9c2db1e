package sim

import (
	"fmt"
	"strings"
	"testing"
)

// pairWorld builds n independent proc pairs that exchange k rounds through a
// shared mailbox each, tracing every hand-off. Each pair declares a footprint
// of its two rank resources, so epoch dispatch can run pairs concurrently.
// Returns the trace and the engine's stats.
func pairWorld(t *testing.T, workers, pairs, rounds int) ([]string, Stats) {
	t.Helper()
	e := NewEngine()
	e.SetWorkers(workers)
	traces := make([][]string, pairs)
	type mailbox struct {
		full bool
		seq  int
	}
	boxes := make([]*mailbox, pairs)
	procs := make([]*Proc, 2*pairs)
	for i := 0; i < pairs; i++ {
		i := i
		boxes[i] = &mailbox{}
		for side := 0; side < 2; side++ {
			side := side
			id := 2*i + side
			p := e.Go(fmt.Sprintf("p%d.%d", i, side), func(p *Proc) {
				box := boxes[i]
				peer := procs[2*i+1-side]
				for r := 0; r < rounds; r++ {
					p.Advance(Time(1+i) * Nanosecond) // pairs drift apart in time
					if side == 0 {
						for box.full {
							p.Park()
						}
						box.full, box.seq = true, r
						peer.UnparkAt(p.Now())
					} else {
						for !box.full || box.seq != r {
							p.Park()
						}
						box.full = false
						traces[i] = append(traces[i], fmt.Sprintf("pair%d r%d@%v", i, r, p.Now()))
						peer.UnparkAt(p.Now())
					}
				}
			})
			p.SetRes(Res(1 + id))
			p.SetFootprint(func(buf []Res) []Res {
				// A pair is causally closed: both sides always claim both.
				return append(buf, Res(1+2*i), Res(1+2*i+1))
			})
			procs[id] = p
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, tr := range traces {
		all = append(all, tr...)
	}
	return all, e.Stats()
}

// TestEpochDispatchRunsPairsIndependently checks that disjoint footprints
// form parallel batches wider than one group.
func TestEpochDispatchRunsPairsIndependently(t *testing.T) {
	_, st := pairWorld(t, 1, 8, 50)
	if st.ParallelBatches == 0 {
		t.Fatal("no epochs formed; epoch dispatch did not engage")
	}
	if st.MaxBatchWidth < 8 {
		t.Errorf("MaxBatchWidth = %d, want >= 8 (one group per pair)", st.MaxBatchWidth)
	}
}

// TestEpochDispatchDeterministicAcrossWorkers locks in the tentpole
// invariant at the engine level: traces and every width-independent stats
// counter are identical for any worker count.
func TestEpochDispatchDeterministicAcrossWorkers(t *testing.T) {
	baseTrace, baseStats := pairWorld(t, 1, 6, 40)
	baseStats.BarrierStalls = 0 // the one deliberately width-dependent counter
	for _, workers := range []int{2, 4, 8} {
		trace, stats := pairWorld(t, workers, 6, 40)
		stats.BarrierStalls = 0
		if strings.Join(trace, ";") != strings.Join(baseTrace, ";") {
			t.Fatalf("trace diverged at %d workers", workers)
		}
		if stats != baseStats {
			t.Errorf("stats diverged at %d workers:\n 1: %+v\n%2d: %+v", workers, baseStats, workers, stats)
		}
	}
}

// TestEpochGlobalFootprintMatchesSequential checks the degenerate case: a
// world that declares nothing and a world whose every proc declares Global
// both form one group per epoch and dispatch in global (t, seq) order
// (exercised via a cross-proc wake chain). The expected interleaving is the
// one the engine's former sequential loop produced for this program,
// recorded at f967c29.
func TestEpochGlobalFootprintMatchesSequential(t *testing.T) {
	const want = "p0@1.000ns;p3@2.000ns;p1@3.000ns;p4@4.000ns;p1@4.000ns;p2@5.000ns;p0@5.000ns;" +
		"p4@6.000ns;p3@7.000ns;p0@7.000ns;p1@8.000ns;p2@8.000ns;p2@9.000ns;p3@10.000ns;p1@10.000ns;" +
		"p4@11.000ns;p3@11.000ns;p0@12.000ns;p2@13.000ns;p4@14.000ns"
	for _, declare := range []bool{false, true} {
		e := NewEngine()
		e.SetWorkers(4)
		var order []string
		var procs []*Proc
		for i := 0; i < 5; i++ {
			i := i
			p := e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(Time(1+(i*7+j*3)%5) * Nanosecond)
					order = append(order, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
					if i > 0 {
						procs[i-1].UnparkAt(p.Now())
					}
				}
			})
			if declare {
				p.SetFootprint(func(buf []Res) []Res { return append(buf, Global) })
			}
			procs = append(procs, p)
		}
		if err := e.Run(); err != nil {
			if _, ok := err.(*DeadlockError); !ok {
				t.Fatal(err)
			}
		}
		if st := e.Stats(); st.MaxBatchWidth != 1 {
			t.Errorf("declare=%v: MaxBatchWidth = %d, want one group per epoch", declare, st.MaxBatchWidth)
		}
		if got := strings.Join(order, ";"); got != want {
			t.Errorf("declare=%v: dispatch order diverged:\ngot:  %s\nwant: %s", declare, got, want)
		}
	}
}

// TestYieldRegroupMergesFootprints exercises the claim protocol: a proc that
// discovers it needs a resource outside its group widens its footprint,
// yields, and both procs end up causally merged with no lost updates.
func TestYieldRegroupMergesFootprints(t *testing.T) {
	e := NewEngine()
	e.SetWorkers(4)
	var a, b *Proc
	shared := 0
	wantB := false
	e.Go("filler", func(p *Proc) { // keeps epochs turning over
		for i := 0; i < 40; i++ {
			p.Sleep(Nanosecond)
		}
	})
	a = e.Go("a", func(p *Proc) {
		p.Advance(5 * Nanosecond)
		// Widen footprint to include b's resource, then claim it.
		wantB = true
		if !p.CanTouch(2) {
			p.YieldRegroup()
		}
		if !p.CanTouch(2) {
			t.Error("after YieldRegroup, a still cannot touch b's resource")
		}
		shared = 42
		b.UnparkAt(p.Now())
	})
	a.SetRes(1)
	a.SetFootprint(func(buf []Res) []Res {
		buf = append(buf, 1)
		if wantB {
			buf = append(buf, 2)
		}
		return buf
	})
	b = e.Go("b", func(p *Proc) {
		for shared == 0 {
			p.Park()
		}
		if shared != 42 {
			t.Errorf("b observed shared = %d, want 42", shared)
		}
	})
	b.SetRes(2)
	b.SetFootprint(func(buf []Res) []Res { return append(buf, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
