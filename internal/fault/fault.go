// Package fault implements deterministic fault injection for the simulated
// MPI stack: an explicit, seeded schedule of fault events keyed on virtual
// time (sim.Time) that the engine layers consult while they run. Because a
// world with a plan dispatches one event at a time in global virtual-time
// order (it declares no footprints, so every epoch is one group) and the
// plan is consulted at virtual-time points only, identical plans produce
// identical simulated outcomes — the repo's core determinism invariant
// extends to faulty runs.
//
// The fault model covers the failure classes a container-based InfiniBand
// cloud actually exhibits (cf. the paper's deployment on Chameleon and the
// RC transport semantics of MVAPICH-style runtimes):
//
//   - LinkFlap: an IB port is down for a window; transfers touching it are
//     deferred to the window's end (cut-through transmission stalls).
//   - LinkDegrade: a port runs at reduced bandwidth for a window (cable
//     renegotiation, congestion on a shared physical link).
//   - LoopStall: the per-host loopback DMA engine stalls for a window,
//     hitting exactly the HCA-loopback traffic the paper reschedules.
//   - SendDrop: a budget of transmissions from a host is dropped, forcing
//     MVAPICH-style RC retransmission with exponential backoff; exhausting
//     the retry budget breaks the queue pair (completion-with-error).
//   - ShmAttachFail: shared-memory segment attaches on a host fail during a
//     window (namespace misconfiguration, /dev/shm exhaustion).
//   - CMAFail: process_vm_readv calls on a host fail during a window
//     (ptrace policy change, PID namespace surprises).
//   - RankCrash: a rank dies at time T (node loss, OOM kill).
//   - Straggler: a rank computes slower by a factor during a window
//     (noisy neighbour, thermal throttling).
//
// A Plan is a value: build it with the fluent helpers (or RandomPlan for
// seeded stress testing), hand it to the runtime via mpi.Options.FaultPlan,
// and the runtime builds one Injector per job.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"cmpi/internal/sim"
)

// Kind enumerates the fault event classes.
type Kind int

// The supported fault kinds.
const (
	// LinkFlap takes the Host's IB port down for [At, At+Duration).
	LinkFlap Kind = iota
	// LinkDegrade multiplies the Host's per-operation link occupancy by
	// Factor (>= 1) during the window.
	LinkDegrade
	// LoopStall makes the Host's loopback DMA engine unavailable during the
	// window.
	LoopStall
	// SendDrop drops up to Count transmissions posted from the Host during
	// the window, triggering RC retransmission.
	SendDrop
	// ShmAttachFail fails shared-memory segment attaches on the Host during
	// the window. SegPrefix, when set, restricts the failure to segment
	// names with that prefix; Count, when > 0, bounds how many attaches fail.
	ShmAttachFail
	// CMAFail fails process_vm_readv calls issued on the Host during the
	// window. Count, when > 0, bounds how many calls fail.
	CMAFail
	// RankCrash kills Rank at time At.
	RankCrash
	// Straggler stretches Rank's computation by Factor (>= 1) during the
	// window.
	Straggler
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case LinkFlap:
		return "link-flap"
	case LinkDegrade:
		return "link-degrade"
	case LoopStall:
		return "loop-stall"
	case SendDrop:
		return "send-drop"
	case ShmAttachFail:
		return "shm-attach-fail"
	case CMAFail:
		return "cma-fail"
	case RankCrash:
		return "rank-crash"
	case Straggler:
		return "straggler"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Any targets every host or every rank (the Event.Host / Event.Rank
// wildcard).
const Any = -1

// Event is one scheduled fault. Zero-valued fields that do not apply to the
// kind are ignored.
type Event struct {
	// Kind selects the fault class.
	Kind Kind
	// At is the virtual time the fault begins.
	At sim.Time
	// Duration is the window length; 0 means open-ended (until job end).
	// Ignored by RankCrash.
	Duration sim.Time
	// Host targets a host index (link, loopback, drop, shm, cma faults).
	// Any matches every host.
	Host int
	// Rank targets a global rank (RankCrash, Straggler). Any matches every
	// rank (Straggler only; a crash must name its victim).
	Rank int
	// Factor is the slowdown/degradation multiplier (LinkDegrade,
	// Straggler); must be finite and >= 1.
	Factor float64
	// Count bounds stateful faults: transmissions dropped (SendDrop) or
	// failures served (ShmAttachFail, CMAFail, 0 = unlimited in window).
	Count int
	// SegPrefix restricts ShmAttachFail to segment names with this prefix
	// (empty matches all segments).
	SegPrefix string
}

// window reports whether t falls inside the event's active window.
func (e *Event) window(t sim.Time) bool {
	if t < e.At {
		return false
	}
	return e.Duration == 0 || t < e.At+e.Duration
}

// String renders the event for plan dumps.
func (e Event) String() string {
	s := fmt.Sprintf("%v at %v", e.Kind, e.At)
	if e.Duration > 0 {
		s += fmt.Sprintf(" for %v", e.Duration)
	}
	switch e.Kind {
	case RankCrash, Straggler:
		s += fmt.Sprintf(" rank=%d", e.Rank)
	default:
		s += fmt.Sprintf(" host=%d", e.Host)
	}
	if e.Factor != 0 {
		s += fmt.Sprintf(" x%.2f", e.Factor)
	}
	if e.Count != 0 {
		s += fmt.Sprintf(" count=%d", e.Count)
	}
	return s
}

// Plan is a deterministic fault schedule. The zero value is an empty plan.
type Plan struct {
	// Seed records the generator seed for plans built by RandomPlan (pure
	// metadata for reproducibility reports; explicit plans leave it 0).
	Seed int64
	// Events is the schedule. Order does not matter; the injector indexes
	// events by kind and consults windows by virtual time.
	Events []Event
}

// NewPlan returns an empty plan for fluent building.
func NewPlan() *Plan { return &Plan{} }

// Add appends an event and returns the plan for chaining.
func (p *Plan) Add(ev Event) *Plan {
	p.Events = append(p.Events, ev)
	return p
}

// LinkFlap schedules an IB port-down window on host.
func (p *Plan) LinkFlap(host int, at, dur sim.Time) *Plan {
	return p.Add(Event{Kind: LinkFlap, Host: host, At: at, Duration: dur})
}

// LinkDegrade schedules a bandwidth-degradation window on host.
func (p *Plan) LinkDegrade(host int, at, dur sim.Time, factor float64) *Plan {
	return p.Add(Event{Kind: LinkDegrade, Host: host, At: at, Duration: dur, Factor: factor})
}

// LoopStall schedules a loopback-DMA stall window on host.
func (p *Plan) LoopStall(host int, at, dur sim.Time) *Plan {
	return p.Add(Event{Kind: LoopStall, Host: host, At: at, Duration: dur})
}

// SendDrops schedules count dropped transmissions from host within the window.
func (p *Plan) SendDrops(host int, at, dur sim.Time, count int) *Plan {
	return p.Add(Event{Kind: SendDrop, Host: host, At: at, Duration: dur, Count: count})
}

// ShmAttachFail schedules shared-memory attach failures on host; segPrefix
// (optionally empty) restricts which segments fail.
func (p *Plan) ShmAttachFail(host int, at, dur sim.Time, segPrefix string) *Plan {
	return p.Add(Event{Kind: ShmAttachFail, Host: host, At: at, Duration: dur, SegPrefix: segPrefix})
}

// CMAFail schedules process_vm_readv failures on host within the window.
func (p *Plan) CMAFail(host int, at, dur sim.Time) *Plan {
	return p.Add(Event{Kind: CMAFail, Host: host, At: at, Duration: dur})
}

// RankCrash schedules rank's death at time at.
func (p *Plan) RankCrash(rank int, at sim.Time) *Plan {
	return p.Add(Event{Kind: RankCrash, Rank: rank, At: at})
}

// Straggler schedules a compute slowdown of factor on rank within the window.
func (p *Plan) Straggler(rank int, at, dur sim.Time, factor float64) *Plan {
	return p.Add(Event{Kind: Straggler, Rank: rank, At: at, Duration: dur, Factor: factor})
}

// Validate checks the plan against a deployment geometry. hosts and ranks
// bound the valid targets; Any is always accepted (except for RankCrash,
// which must name its victim).
func (p *Plan) Validate(hosts, ranks int) error {
	for i, e := range p.Events {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("fault plan event %d (%v): %s", i, e.Kind, fmt.Sprintf(format, args...))
		}
		if e.At < 0 || e.Duration < 0 {
			return fail("negative time (at=%v dur=%v)", e.At, e.Duration)
		}
		if e.Count < 0 {
			return fail("negative count %d", e.Count)
		}
		switch e.Kind {
		case LinkFlap, LinkDegrade, LoopStall, SendDrop, ShmAttachFail, CMAFail:
			if e.Host != Any && (e.Host < 0 || e.Host >= hosts) {
				return fail("host %d outside [0,%d)", e.Host, hosts)
			}
		case RankCrash:
			if e.Rank < 0 || e.Rank >= ranks {
				return fail("rank %d outside [0,%d); a crash must name its victim", e.Rank, ranks)
			}
		case Straggler:
			if e.Rank != Any && (e.Rank < 0 || e.Rank >= ranks) {
				return fail("rank %d outside [0,%d)", e.Rank, ranks)
			}
		default:
			return fail("unknown kind")
		}
		if (e.Kind == LinkDegrade || e.Kind == Straggler) && !(e.Factor >= 1 && e.Factor <= math.MaxFloat64) {
			return fail("factor %.3f, need a finite value >= 1", e.Factor)
		}
		if e.Kind == SendDrop && e.Count < 1 {
			return fail("SendDrop needs count >= 1")
		}
	}
	return nil
}

// RandomPlan generates a seeded plan of n events spread over [0, span) for a
// given geometry — deterministic for a given seed, for fuzz/stress runs. It
// never generates RankCrash events (crashes make most stress bodies abort by
// design); add those explicitly.
func RandomPlan(seed int64, hosts, ranks, n int, span sim.Time) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	kinds := []Kind{LinkFlap, LinkDegrade, LoopStall, SendDrop, ShmAttachFail, CMAFail, Straggler}
	for i := 0; i < n; i++ {
		k := kinds[rng.Intn(len(kinds))]
		at := sim.Time(rng.Int63n(int64(span)))
		dur := sim.Time(rng.Int63n(int64(span) / 4))
		ev := Event{Kind: k, At: at, Duration: dur, Host: rng.Intn(hosts), Rank: rng.Intn(ranks)}
		switch k {
		case LinkDegrade, Straggler:
			ev.Factor = 1 + rng.Float64()*3
		case SendDrop:
			ev.Count = 1 + rng.Intn(4)
		}
		p.Add(ev)
	}
	return p
}
