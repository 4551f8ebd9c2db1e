package fault

import (
	"errors"
	"fmt"
	"strings"

	"cmpi/internal/sim"
)

// ErrInjected is the sentinel cause wrapped by every error the injector
// manufactures, so layers can distinguish injected faults from model bugs
// with errors.Is.
var ErrInjected = errors.New("injected fault")

// AttachError is returned (wrapped) by shared-memory attaches that an
// injector failed.
type AttachError struct {
	// Name is the segment whose attach failed.
	Name string
	// Host is the host index the failure fired on.
	Host int
}

// Error formats the failure.
func (e *AttachError) Error() string {
	return fmt.Sprintf("shm attach of %q failed on host %d: %v", e.Name, e.Host, ErrInjected)
}

// Unwrap exposes ErrInjected for errors.Is.
func (e *AttachError) Unwrap() error { return ErrInjected }

// Injector is one job's live view of a Plan: window queries plus the
// mutable budget state of counted events. Build one per World; injectors
// must not be shared across concurrently running engines.
type Injector struct {
	events  []Event
	budgets []int // remaining Count per event (-1 = unlimited)
}

// NewInjector validates the plan against the deployment geometry and
// returns a fresh injector. A nil plan yields a nil injector (no faults),
// which every query method tolerates.
func NewInjector(p *Plan, hosts, ranks int) (*Injector, error) {
	if p == nil {
		return nil, nil
	}
	if err := p.Validate(hosts, ranks); err != nil {
		return nil, err
	}
	in := &Injector{events: append([]Event(nil), p.Events...)}
	in.budgets = make([]int, len(in.events))
	for i, e := range in.events {
		if e.Count > 0 {
			in.budgets[i] = e.Count
		} else {
			in.budgets[i] = -1
		}
	}
	return in, nil
}

// hostMatch reports whether event e targets host.
func hostMatch(e *Event, host int) bool { return e.Host == Any || e.Host == host }

// rankMatch reports whether event e targets rank.
func rankMatch(e *Event, rank int) bool { return e.Rank == Any || e.Rank == rank }

// LinkReady defers t past any LinkFlap window covering host and reports
// whether a stall occurred. Adjacent windows chain: the returned time is
// outside every flap window.
func (in *Injector) LinkReady(host int, t sim.Time) (sim.Time, bool) {
	if in == nil {
		return t, false
	}
	stalled := false
	for moved := true; moved; {
		moved = false
		for i := range in.events {
			e := &in.events[i]
			if e.Kind != LinkFlap || !hostMatch(e, host) || e.Duration == 0 || !e.window(t) {
				continue
			}
			t = e.At + e.Duration
			stalled, moved = true, true
		}
	}
	return t, stalled
}

// LoopReady is LinkReady for the loopback DMA engine (LoopStall windows).
func (in *Injector) LoopReady(host int, t sim.Time) (sim.Time, bool) {
	if in == nil {
		return t, false
	}
	stalled := false
	for moved := true; moved; {
		moved = false
		for i := range in.events {
			e := &in.events[i]
			if e.Kind != LoopStall || !hostMatch(e, host) || e.Duration == 0 || !e.window(t) {
				continue
			}
			t = e.At + e.Duration
			stalled, moved = true, true
		}
	}
	return t, stalled
}

// OccScale multiplies a link occupancy by the strongest LinkDegrade factor
// active on host at time t.
func (in *Injector) OccScale(host int, t sim.Time, occ sim.Time) sim.Time {
	if in == nil {
		return occ
	}
	factor := 1.0
	for i := range in.events {
		e := &in.events[i]
		if e.Kind == LinkDegrade && hostMatch(e, host) && e.window(t) && e.Factor > factor {
			factor = e.Factor
		}
	}
	if factor == 1.0 {
		return occ
	}
	return sim.Time(float64(occ) * factor)
}

// ConsumeSendDrop reports whether a transmission posted from host at time t
// is dropped, decrementing the matching event's budget. Deterministic:
// events are scanned in plan order and the first live match consumes.
func (in *Injector) ConsumeSendDrop(host int, t sim.Time) bool {
	if in == nil {
		return false
	}
	for i := range in.events {
		e := &in.events[i]
		if e.Kind != SendDrop || !hostMatch(e, host) || !e.window(t) || in.budgets[i] == 0 {
			continue
		}
		in.budgets[i]--
		return true
	}
	return false
}

// ShmAttachFails reports whether attaching segment name on host at time t
// fails, consuming any budget on the matching event.
func (in *Injector) ShmAttachFails(host int, name string, t sim.Time) bool {
	if in == nil {
		return false
	}
	for i := range in.events {
		e := &in.events[i]
		if e.Kind != ShmAttachFail || !hostMatch(e, host) || !e.window(t) || in.budgets[i] == 0 {
			continue
		}
		if e.SegPrefix != "" && !strings.HasPrefix(name, e.SegPrefix) {
			continue
		}
		if in.budgets[i] > 0 {
			in.budgets[i]--
		}
		return true
	}
	return false
}

// CMAFails reports whether a process_vm_readv issued on host at time t
// fails, consuming any budget on the matching event.
func (in *Injector) CMAFails(host int, t sim.Time) bool {
	if in == nil {
		return false
	}
	for i := range in.events {
		e := &in.events[i]
		if e.Kind != CMAFail || !hostMatch(e, host) || !e.window(t) || in.budgets[i] == 0 {
			continue
		}
		if in.budgets[i] > 0 {
			in.budgets[i]--
		}
		return true
	}
	return false
}

// CrashTime returns the earliest scheduled crash for rank.
func (in *Injector) CrashTime(rank int) (sim.Time, bool) {
	if in == nil {
		return 0, false
	}
	var at sim.Time
	found := false
	for i := range in.events {
		e := &in.events[i]
		if e.Kind != RankCrash || e.Rank != rank {
			continue
		}
		if !found || e.At < at {
			at, found = e.At, true
		}
	}
	return at, found
}

// Stretch scales a compute span d for rank by the strongest Straggler
// factor active at time t.
func (in *Injector) Stretch(rank int, t sim.Time, d sim.Time) sim.Time {
	if in == nil {
		return d
	}
	factor := 1.0
	for i := range in.events {
		e := &in.events[i]
		if e.Kind == Straggler && rankMatch(e, rank) && e.window(t) && e.Factor > factor {
			factor = e.Factor
		}
	}
	if factor == 1.0 {
		return d
	}
	return sim.Time(float64(d) * factor)
}
