// Package mpi is the simulated MPI runtime: an MVAPICH2-like library with
// ADI3-style layering, three communication channels (shared-memory eager
// ring, CMA rendezvous, InfiniBand eager/rendezvous), MPI matching
// semantics, two-sided and one-sided point-to-point operations, and
// collectives — all running on the deterministic virtual-time engine in
// internal/sim.
//
// The runtime exists in two modes (core.Mode): the stock hostname-based
// locality test, and the paper's Container Locality Detector. Everything
// else is shared, so measured differences isolate the paper's contribution.
package mpi

import (
	"fmt"

	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/ib"
	"cmpi/internal/perf"
	"cmpi/internal/trace"
)

// Options configures one MPI job.
type Options struct {
	// Mode selects default (hostname) or locality-aware channel selection.
	Mode core.Mode
	// Tunables are the MVAPICH-style channel parameters.
	Tunables core.Tunables
	// Params is the hardware cost model.
	Params perf.Params
	// Profile enables the mpiP-style profiler (small bookkeeping cost only
	// in host time, free in virtual time).
	Profile bool
	// HierarchicalCollectives routes Allreduce and Bcast through two-level
	// (leader-based) algorithms built on the locality map — an extension
	// beyond the paper, off by default to match its evaluation.
	HierarchicalCollectives bool
	// LockedDetector switches the Container Locality Detector to a
	// mutex-protected list for the ablation of the paper's lock-free
	// byte-per-rank design: concurrent publishers then serialize on the
	// lock during MPI_Init.
	LockedDetector bool
	// Record, when non-nil, captures the structured trace: every message,
	// protocol-transition, and fault event as a versioned trace.Record in
	// deterministic dispatch order, replayable offline with trace.Replay.
	// Recording changes no simulated result, and the bytes are identical from
	// run to run. A Recorder is single-shot — build a fresh one per world.
	Record *trace.Recorder
	// FaultPlan, when non-nil, is a deterministic schedule of injected
	// faults (link flaps, send drops, attach failures, crashes, ...) that
	// the substrates consult in virtual time. Identical plans over identical
	// jobs produce identical simulated outcomes.
	FaultPlan *fault.Plan
	// ErrHandler selects the job's reaction to a lost peer (a broken
	// channel or a crash) under fault injection. The zero value is
	// ErrorsAreFatal, the MPI default.
	ErrHandler ErrorHandler
	// Topology is the fabric's switching hierarchy (racks and fat-tree spine
	// stages). The zero value is the paper's testbed: one non-blocking
	// crossbar, byte-identical to the runtime before topology existed. A
	// non-trivial topology adds per-hop latency and per-spine contention to
	// inter-rack transfers.
	Topology ib.Topology
}

// DefaultOptions is the paper's proposed configuration: locality-aware with
// container-tuned channel parameters.
func DefaultOptions() Options {
	return Options{
		Mode:     core.ModeLocalityAware,
		Tunables: core.DefaultTunables(),
		Params:   perf.Default(),
	}
}

// StockOptions is unmodified MVAPICH2: hostname-based locality with the
// same tuned channel parameters (so comparisons isolate the locality
// design, as the paper's "Def" series does).
func StockOptions() Options {
	o := DefaultOptions()
	o.Mode = core.ModeDefault
	return o
}

// Validate rejects inconsistent option sets.
func (o *Options) Validate() error {
	if err := o.Tunables.Validate(); err != nil {
		return fmt.Errorf("mpi options: %w", err)
	}
	if o.Params.CopyBWIntraSocket <= 0 || o.Params.IBBWInter <= 0 {
		return fmt.Errorf("mpi options: perf params not initialized (use perf.Default())")
	}
	if err := o.Topology.Validate(); err != nil {
		return fmt.Errorf("mpi options: %w", err)
	}
	return nil
}

// AnySource matches any sending rank in Irecv/Recv.
const AnySource = -1

// AnyTag matches any tag in Irecv/Recv.
const AnyTag = -1
