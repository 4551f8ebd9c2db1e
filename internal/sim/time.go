// Package sim implements a deterministic discrete-event simulation engine.
// Every simulated process (an MPI rank, in this repository) has its own
// virtual clock and runs only while the engine has handed it control. The
// engine dispatches in epochs: pending events are partitioned by the
// resources they declare into causally independent groups, each group runs
// its events in virtual-time order, and groups of one epoch may run
// concurrently. Simulations are bit-reproducible at any dispatch width and
// data-race-free by construction: state guarded by a resource is only ever
// touched by the group that owns it, or by the scheduler between epochs.
package sim

import (
	"fmt"
	"math"
)

// Time is a point (or span) of virtual time, measured in picoseconds.
// Picosecond resolution keeps byte-granularity bandwidth arithmetic exact
// enough that rounding never distorts modeled throughput: one byte on a
// 56 Gb/s link is ~143ps. The int64 range still covers over 100 days of
// virtual time.
type Time int64

// Units of virtual time.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos returns t expressed in nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// String renders t with an adaptive unit, e.g. "1.234us" or "17.5ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3fns", t.Nanos())
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// FromSeconds converts a duration in seconds to virtual Time,
// saturating rather than overflowing for out-of-range values.
func FromSeconds(s float64) Time { return fromFloat(s * float64(Second)) }

// FromMicros converts a duration in microseconds to virtual Time.
func FromMicros(us float64) Time { return fromFloat(us * float64(Microsecond)) }

// FromNanos converts a duration in nanoseconds to virtual Time.
func FromNanos(ns float64) Time { return fromFloat(ns * float64(Nanosecond)) }

func fromFloat(ps float64) Time {
	if math.IsNaN(ps) {
		return 0
	}
	if ps >= math.MaxInt64 {
		return Time(math.MaxInt64)
	}
	if ps <= math.MinInt64 {
		return Time(math.MinInt64)
	}
	return Time(math.Round(ps))
}
