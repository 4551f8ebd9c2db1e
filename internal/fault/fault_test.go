package fault

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"cmpi/internal/sim"
)

func us(v int64) sim.Time { return sim.Time(v) * sim.Microsecond }

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		ok   bool
	}{
		{"link flap ok", Event{Kind: LinkFlap, Host: 1, At: us(1), Duration: us(2)}, true},
		{"wildcard host", Event{Kind: CMAFail, Host: Any, At: 0}, true},
		{"host out of range", Event{Kind: LinkFlap, Host: 4, At: 0}, false},
		{"negative at", Event{Kind: LinkFlap, Host: 0, At: -1}, false},
		{"crash needs rank", Event{Kind: RankCrash, Rank: Any, At: us(1)}, false},
		{"crash ok", Event{Kind: RankCrash, Rank: 3, At: us(1)}, true},
		{"degrade factor below one", Event{Kind: LinkDegrade, Host: 0, Factor: 0.5}, false},
		{"straggler ok", Event{Kind: Straggler, Rank: Any, Factor: 2}, true},
		{"send drop needs count", Event{Kind: SendDrop, Host: 0}, false},
		{"NaN factor", Event{Kind: Straggler, Rank: 0, Factor: math.NaN()}, false},
		{"infinite factor", Event{Kind: LinkDegrade, Host: 0, Factor: math.Inf(1)}, false},
	}
	for _, tc := range cases {
		p := NewPlan().Add(tc.ev)
		err := p.Validate(4, 8)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// FuzzFaultPlan: a plan's events are numbers from outside. Validate and
// NewInjector agree on every plan, and an injector built from an accepted one
// answers its queries: a stalled link comes back outside every flap window.
func FuzzFaultPlan(f *testing.F) {
	f.Add(uint8(LinkFlap), int64(us(10)), int64(us(5)), 0, 0, 1.0, 0, "", uint8(2), uint8(2))
	f.Add(uint8(Straggler), int64(0), int64(0), 0, Any, math.NaN(), 0, "", uint8(1), uint8(4))
	f.Add(uint8(SendDrop), int64(-1), int64(us(1)), 3, 0, 0.0, -2, "cmpi.ring.", uint8(4), uint8(8))
	f.Add(uint8(RankCrash), int64(us(1)), int64(0), 0, 7, 0.0, 0, "", uint8(1), uint8(8))
	f.Fuzz(func(t *testing.T, kind uint8, at, dur int64, host, rank int, factor float64, count int, prefix string, hosts, ranks uint8) {
		ev := Event{Kind: Kind(kind % 10), At: sim.Time(at), Duration: sim.Time(dur), Host: host, Rank: rank,
			Factor: factor, Count: count, SegPrefix: prefix}
		p := NewPlan().LinkFlap(0, us(10), us(5)).Add(ev)
		valid := p.Validate(int(hosts), int(ranks))
		in, err := NewInjector(p, int(hosts), int(ranks))
		if (valid == nil) != (err == nil) {
			t.Fatalf("Validate says %v, NewInjector %v", valid, err)
		}
		if err != nil {
			return
		}
		for _, q := range []sim.Time{0, ev.At, ev.At + ev.Duration, us(12)} {
			got, _ := in.LinkReady(host, q)
			for _, e := range in.events {
				if got < q || e.Kind == LinkFlap && hostMatch(&e, host) && e.Duration > 0 && e.window(got) {
					t.Fatalf("LinkReady(%d, %v) = %v: inside %v", host, q, got, e)
				}
			}
			in.LoopReady(host, q)
			in.OccScale(host, q, us(1))
			in.ConsumeSendDrop(host, q)
			in.ShmAttachFails(host, "cmpi.ring.x", q)
			in.CMAFails(host, q)
			in.Stretch(rank, q, us(1))
			in.CrashTime(rank)
		}
	})
}

func TestWindowSemantics(t *testing.T) {
	e := Event{Kind: CMAFail, Host: 0, At: us(10), Duration: us(5)}
	for _, tc := range []struct {
		t  sim.Time
		in bool
	}{
		{us(9), false}, {us(10), true}, {us(14), true}, {us(15), false},
	} {
		if got := e.window(tc.t); got != tc.in {
			t.Errorf("window(%v) = %v, want %v", tc.t, got, tc.in)
		}
	}
	open := Event{Kind: CMAFail, Host: 0, At: us(10)}
	if !open.window(us(1000000)) {
		t.Error("open-ended window should cover all later times")
	}
}

func TestLinkReadyChainsWindows(t *testing.T) {
	p := NewPlan().
		LinkFlap(0, us(10), us(5)).
		LinkFlap(0, us(15), us(5)). // adjacent: stall must clear both
		LinkFlap(1, us(0), us(100))
	in, err := NewInjector(p, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, stalled := in.LinkReady(0, us(12))
	if !stalled || got != us(20) {
		t.Fatalf("LinkReady(0, 12us) = %v stalled=%v, want 20us true", got, stalled)
	}
	got, stalled = in.LinkReady(0, us(25))
	if stalled || got != us(25) {
		t.Fatalf("LinkReady outside window moved time: %v %v", got, stalled)
	}
	if c := in.Counters().LinkStalls; c != 1 {
		t.Fatalf("LinkStalls = %d, want 1", c)
	}
}

func TestSendDropBudget(t *testing.T) {
	p := NewPlan().SendDrops(0, us(0), us(100), 2)
	in, err := NewInjector(p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for i := 0; i < 5; i++ {
		if in.ConsumeSendDrop(0, us(int64(i))) {
			drops++
		}
	}
	if drops != 2 {
		t.Fatalf("drops = %d, want budget of 2", drops)
	}
	if in.ConsumeSendDrop(0, us(200)) {
		t.Fatal("drop fired outside window")
	}
	if c := in.Counters().SendDrops; c != 2 {
		t.Fatalf("SendDrops = %d, want 2", c)
	}
}

func TestShmAttachPrefixFilter(t *testing.T) {
	p := NewPlan().ShmAttachFail(0, us(0), 0, "cmpi.ring.")
	in, err := NewInjector(p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.ShmAttachFails(0, "cmpi.locality.job1", us(1)) {
		t.Fatal("prefix filter should spare the locality segment")
	}
	if !in.ShmAttachFails(0, "cmpi.ring.job1.0-1", us(1)) {
		t.Fatal("ring segment should fail")
	}
}

func TestStretchAndCrash(t *testing.T) {
	p := NewPlan().Straggler(1, us(10), us(10), 3).RankCrash(0, us(50))
	in, err := NewInjector(p, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := in.Stretch(1, us(15), us(2)); d != us(6) {
		t.Fatalf("Stretch in window = %v, want 6us", d)
	}
	if d := in.Stretch(1, us(25), us(2)); d != us(2) {
		t.Fatalf("Stretch outside window = %v, want 2us", d)
	}
	if d := in.Stretch(0, us(15), us(2)); d != us(2) {
		t.Fatalf("Stretch wrong rank = %v, want 2us", d)
	}
	at, ok := in.CrashTime(0)
	if !ok || at != us(50) {
		t.Fatalf("CrashTime(0) = %v %v, want 50us true", at, ok)
	}
	if _, ok := in.CrashTime(1); ok {
		t.Fatal("rank 1 has no crash scheduled")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if tt, s := in.LinkReady(0, us(5)); s || tt != us(5) {
		t.Fatal("nil injector stalled a link")
	}
	if in.ConsumeSendDrop(0, 0) || in.CMAFails(0, 0) || in.ShmAttachFails(0, "x", 0) {
		t.Fatal("nil injector fired a fault")
	}
	if d := in.Stretch(0, 0, us(1)); d != us(1) {
		t.Fatal("nil injector stretched time")
	}
	if c := in.Counters(); c != (Counters{}) {
		t.Fatal("nil injector counted something")
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a := RandomPlan(42, 4, 16, 20, sim.Millisecond)
	b := RandomPlan(42, 4, 16, 20, sim.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RandomPlan with equal seeds differs")
	}
	c := RandomPlan(43, 4, 16, 20, sim.Millisecond)
	if reflect.DeepEqual(a, c) {
		t.Fatal("RandomPlan ignored the seed")
	}
	if err := a.Validate(4, 16); err != nil {
		t.Fatalf("RandomPlan produced invalid plan: %v", err)
	}
}

func TestAttachErrorUnwrapsSentinel(t *testing.T) {
	err := error(&AttachError{Name: "seg", Host: 2})
	if !errors.Is(err, ErrInjected) {
		t.Fatal("AttachError must unwrap to ErrInjected")
	}
}
