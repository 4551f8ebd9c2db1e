package profile

import (
	"reflect"
	"testing"
	"testing/quick"

	"cmpi/internal/core"
	"cmpi/internal/sim"
)

func TestEnterExitNesting(t *testing.T) {
	rp := NewRankProfile(0)
	// Outer "Send" wrapping inner "Isend" and "Wait": only the outer call
	// accumulates (mpiP-style top-level attribution).
	if !rp.Enter(10 * sim.Microsecond) {
		t.Fatal("outermost Enter should report true")
	}
	if rp.Enter(11 * sim.Microsecond) {
		t.Fatal("nested Enter should report false")
	}
	rp.Exit("Isend", 12*sim.Microsecond)
	rp.Enter(12 * sim.Microsecond)
	rp.Exit("Wait", 18*sim.Microsecond)
	rp.Exit("Send", 20*sim.Microsecond)

	if rp.TotalMPI != 10*sim.Microsecond {
		t.Errorf("TotalMPI = %v, want 10us", rp.TotalMPI)
	}
	if rp.MPITime["Send"] != 10*sim.Microsecond {
		t.Errorf("Send time = %v", rp.MPITime["Send"])
	}
	if rp.MPITime["Isend"] != 0 || rp.MPITime["Wait"] != 0 {
		t.Errorf("nested calls attributed: %v", rp.MPITime)
	}
}

func TestComputeTime(t *testing.T) {
	rp := NewRankProfile(0)
	rp.AppTime = 100 * sim.Microsecond
	rp.Enter(0)
	rp.Exit("Barrier", 30*sim.Microsecond)
	if got := rp.ComputeTime(); got != 70*sim.Microsecond {
		t.Errorf("ComputeTime = %v, want 70us", got)
	}
	// Never negative even if accounting overlaps oddly.
	rp.Enter(0)
	rp.Exit("Barrier", 200*sim.Microsecond)
	if got := rp.ComputeTime(); got != 0 {
		t.Errorf("ComputeTime = %v, want clamped 0", got)
	}
}

func TestChannelStats(t *testing.T) {
	cs := ChannelStats{Ops: [3]uint64{2, 1, 1}, Bytes: [3]uint64{150, 8192, 1024}}
	other := ChannelStats{Ops: [3]uint64{0, 0, 1}, Bytes: [3]uint64{0, 0, 1}}
	cs.Merge(&other)
	want := ChannelStats{Ops: [3]uint64{2, 1, 2}, Bytes: [3]uint64{150, 8192, 1025}}
	if cs != want {
		t.Errorf("merged stats %+v, want %+v", cs, want)
	}
}

func TestCollAlgoStatsMerge(t *testing.T) {
	var c, other CollAlgoStats
	c.Calls[core.AllreduceRing], c.Bytes[core.AllreduceRing] = 1, 64
	other.Calls[core.AllreduceRing], other.Bytes[core.AllreduceRing] = 2, 128
	other.Calls[core.AllreduceRecursiveDoubling], other.Bytes[core.AllreduceRecursiveDoubling] = 3, 24
	c.Merge(&other)
	if c.Calls[core.AllreduceRing] != 3 || c.Bytes[core.AllreduceRing] != 192 ||
		c.Calls[core.AllreduceRecursiveDoubling] != 3 || c.Bytes[core.AllreduceRecursiveDoubling] != 24 {
		t.Errorf("merged stats %+v", c)
	}
	if got := c.TotalCalls(); got != 6 {
		t.Errorf("TotalCalls = %d, want 6", got)
	}
	if a, ok := c.Dominant(); !ok || a != core.AllreduceRing {
		t.Errorf("Dominant = %v, %v; want %v, true", a, ok, core.AllreduceRing)
	}
}

func TestProfileAggregation(t *testing.T) {
	p := New(3)
	for i, rp := range p.Ranks {
		rp.AppTime = 100 * sim.Microsecond
		rp.Enter(0)
		rp.Exit("Allreduce", sim.Time(i+1)*10*sim.Microsecond)
		rp.Channels.Ops[core.ChannelSHM], rp.Channels.Bytes[core.ChannelSHM] = 1, 10
	}
	total := p.TotalChannels()
	if total.Ops[core.ChannelSHM] != 3 {
		t.Errorf("total SHM ops = %d", total.Ops[core.ChannelSHM])
	}
	// Comm fraction = (10+20+30)/300 = 0.2.
	if got := p.CommFraction(); got < 0.199 || got > 0.201 {
		t.Errorf("CommFraction = %v", got)
	}
	// Mean compute = (90+80+70)/3 = 80us.
	if got := p.MeanComputeTime(); got != 80*sim.Microsecond {
		t.Errorf("MeanComputeTime = %v", got)
	}
}

func TestTopCallsOrdering(t *testing.T) {
	p := New(2)
	add := func(rank int, call string, d sim.Time) {
		rp := p.Ranks[rank]
		rp.Enter(0)
		rp.Exit(call, d)
	}
	add(0, "Allreduce", 30*sim.Microsecond)
	add(1, "Allreduce", 30*sim.Microsecond)
	add(0, "Isend", 50*sim.Microsecond)
	add(1, "Barrier", 5*sim.Microsecond)
	got := p.TopCalls()
	want := []string{"Allreduce", "Isend", "Barrier"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopCalls = %v, want %v", got, want)
	}
}

func TestEmptyProfile(t *testing.T) {
	p := New(0)
	if p.CommFraction() != 0 || p.MeanComputeTime() != 0 {
		t.Error("empty profile should report zeros")
	}
	if len(p.TopCalls()) != 0 {
		t.Error("empty profile has calls")
	}
}

func TestNestingDepthProperty(t *testing.T) {
	// Property: for any nesting sequence, total attributed time equals the
	// sum of outermost spans.
	f := func(spans []uint8) bool {
		rp := NewRankProfile(0)
		now := sim.Time(0)
		var outer sim.Time
		for _, s := range spans {
			depth := int(s%3) + 1
			span := sim.Time(s) * sim.Microsecond
			for d := 0; d < depth; d++ {
				rp.Enter(now)
			}
			now += span
			for d := 0; d < depth; d++ {
				rp.Exit("X", now)
			}
			outer += span
		}
		return rp.TotalMPI == outer
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
