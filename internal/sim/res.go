package sim

// Res, Global, FootprintFn, SetRes and SetFootprint are what is left of the
// resource declarations an earlier dispatcher partitioned events by. The
// engine has one queue and reads none of them; they stay only because the
// benchmark's layer drivers (bench/layers.go) still call them, and bench/
// changes only together with the benchmark's contract.

// Res named one schedulable resource. Nothing reads it.
type Res int32

// Global was the catch-all resource. Nothing reads it.
const Global Res = 0

// FootprintFn reported the resources a process could touch. Nothing calls it.
type FootprintFn func(buf []Res) []Res

// SetRes does nothing (see Res).
func (p *Proc) SetRes(Res) {}

// SetFootprint does nothing (see Res).
func (p *Proc) SetFootprint(FootprintFn) {}
