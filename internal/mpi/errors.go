package mpi

import (
	"fmt"

	"cmpi/internal/fault"
	"cmpi/internal/ib"
	"cmpi/internal/sim"
)

// ErrorHandler selects what the runtime does when a rank loses a peer
// mid-job — its HCA channel breaks or it crashes — mirroring the two
// predefined MPI error handlers.
type ErrorHandler int

const (
	// ErrorsAreFatal (MPI_ERRORS_ARE_FATAL, the MPI default): the first
	// channel failure or crash aborts the whole job; World.Run returns the
	// aggregated per-rank errors.
	ErrorsAreFatal ErrorHandler = iota
	// ErrorsReturn (MPI_ERRORS_RETURN): a rank that loses a peer fails its
	// operations bound to it with a *ChannelError (broken channel) or, as
	// ULFM reports a dead process, a *ProcFailedError (a RankCrash, which
	// kills only its victim); Request.Err reports the cause, new operations
	// toward the peer fail fast, and the rank keeps running. It can finish
	// degraded, shrink the communicator (Comm.Shrink), or return an error
	// and let World.RunRecoverable rebuild the job from the latest
	// checkpoint. Collectives over a broken channel are undefined, as in
	// real MPI; ranks that keep waiting on such a peer surface as a deadlock
	// report joined into Run's error.
	ErrorsReturn
)

// String names the handler for diagnostics.
func (h ErrorHandler) String() string {
	if h == ErrorsReturn {
		return "errors-return"
	}
	return "errors-are-fatal"
}

// RankError wraps a failure with the identity of the rank it occurred on and
// the virtual time it was detected, so World.Run's aggregated error names
// every casualty.
type RankError struct {
	// Rank is the failed rank.
	Rank int
	// At is the virtual time of the failure.
	At sim.Time
	// Err is the underlying cause.
	Err error
}

// Error formats the failure.
func (e *RankError) Error() string {
	return fmt.Sprintf("rank %d at %v: %v", e.Rank, e.At, e.Err)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *RankError) Unwrap() error { return e.Err }

// ChannelError reports that the HCA channel to a peer broke: the RC
// connection exhausted its retransmission budget (locally or at the remote
// end) and every operation bound to it completed with an error status.
type ChannelError struct {
	// Peer is the rank at the other end of the broken connection.
	Peer int
	// Status is the completion status that reported the break.
	Status ib.WCStatus
	// Retries is how many retransmissions were spent before giving up
	// (nonzero only on the end that exhausted its budget).
	Retries int
}

// Error formats the failure.
func (e *ChannelError) Error() string {
	return fmt.Sprintf("HCA channel to rank %d broken: %v after %d retries", e.Peer, e.Status, e.Retries)
}

// Unwrap exposes the injected-fault sentinel: connections only break under
// fault injection, never from the model itself.
func (e *ChannelError) Unwrap() error { return fault.ErrInjected }

// CrashError reports a rank killed by a RankCrash fault event.
type CrashError struct {
	// Rank is the victim.
	Rank int
	// At is the virtual time of death.
	At sim.Time
}

// Error formats the failure.
func (e *CrashError) Error() string {
	return fmt.Sprintf("rank %d crashed at %v", e.Rank, e.At)
}

// Unwrap exposes the injected-fault sentinel.
func (e *CrashError) Unwrap() error { return fault.ErrInjected }

// ProcFailedError is the ULFM MPI_ERR_PROC_FAILED analogue: under
// ErrorsReturn, an operation involving a crashed rank completes with this
// error at every surviving rank.
type ProcFailedError struct {
	// Peer is the dead rank the operation named (or the rank whose failure
	// poisoned a wildcard receive).
	Peer int
	// At is the virtual time the survivor observed the failure.
	At sim.Time
}

// Error formats the failure.
func (e *ProcFailedError) Error() string {
	return fmt.Sprintf("peer rank %d failed (observed at %v)", e.Peer, e.At)
}

// Unwrap exposes the injected-fault sentinel: ranks only die under fault
// injection.
func (e *ProcFailedError) Unwrap() error { return fault.ErrInjected }

// CheckpointError reports that a Checkpoint collective aborted because a
// member rank crashed before the snapshot could commit. No snapshot is
// written; the store keeps the previous one.
type CheckpointError struct {
	// At is the virtual time the abort was observed.
	At sim.Time
	// Dead lists the crashed ranks at abort time, ascending.
	Dead []int
}

// Error formats the failure.
func (e *CheckpointError) Error() string {
	return fmt.Sprintf("checkpoint aborted at %v: ranks %v failed", e.At, e.Dead)
}

// Unwrap exposes the injected-fault sentinel.
func (e *CheckpointError) Unwrap() error { return fault.ErrInjected }

// crashAbort unwinds a crashed rank's body back to World.Run's wrapper. It
// deliberately is not engineAbort: a crash kills one rank, not (directly)
// the simulation.
type crashAbort struct {
	err *CrashError
}
