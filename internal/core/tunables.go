// Package core implements the paper's primary contribution: the Container
// Locality Detector — a lock-free, byte-per-rank container list kept in a
// host-wide shared-memory segment — and the locality-aware communication
// channel selection policy built on top of it, together with the MVAPICH2
// runtime tunables the paper optimizes for container deployments
// (SMP_EAGER_SIZE, SMPI_LENGTH_QUEUE, MV2_IBA_EAGER_THRESHOLD).
package core

import (
	"fmt"

	"cmpi/internal/sim"
)

// Tunables mirrors the MVAPICH2 runtime parameters studied in Sec. IV-C/D.
type Tunables struct {
	// SMPEagerSize (SMP_EAGER_SIZE) is the switch point between the eager
	// protocol (SHM channel, double copy) and the rendezvous protocol (CMA
	// channel, single copy) for intra-host messages. The paper's tuned
	// value for containers is 8 KiB (Fig. 7a).
	SMPEagerSize int
	// SMPLengthQueue (SMPI_LENGTH_QUEUE) is the size of the shared buffer
	// between every two co-resident processes used by eager transfers.
	// The paper's tuned value is 128 KiB (Fig. 7b).
	SMPLengthQueue int
	// IBAEagerThreshold (MV2_IBA_EAGER_THRESHOLD) is the eager/rendezvous
	// switch point on the HCA channel. The paper's tuned value for
	// container environments is 17 KiB (Fig. 7c).
	IBAEagerThreshold int
	// UseCMA enables the CMA channel for intra-host rendezvous transfers.
	// Disabling it (ablation) forces rendezvous traffic through the shared
	// memory ring instead.
	UseCMA bool
	// AllreduceLargeThreshold switches Allreduce from recursive doubling
	// (latency-optimal) to a bandwidth-optimal algorithm above this message
	// size, mirroring MV2_ALLREDUCE_SHORT_MSG.
	AllreduceLargeThreshold int
	// AllreduceAlgo selects the flat Allreduce algorithm. AllreduceAuto (the
	// zero value) picks per call from message size, world size, and the
	// deployment's co-resident fraction; the other values force one
	// algorithm, mirroring MV2_ALLREDUCE_ALGO-style overrides.
	AllreduceAlgo AllreduceAlgo
	// RetryCount mirrors the RC retry_cnt attribute (MV2_DEFAULT_RETRY_COUNT):
	// how many times the HCA retransmits an unacknowledged operation before
	// completing it with an error and breaking the queue pair. 0 means "use
	// the transport default" (7, the verbs maximum MVAPICH2 configures).
	// Validate rejects anything above MaxRetryCount.
	RetryCount int
	// RetryTimeout is the base RC retransmission timeout; each retry doubles
	// it (exponential backoff), mirroring the 4.096us * 2^MV2_DEFAULT_TIME_OUT
	// encoding of the local ACK timeout. 0 means "use the transport default".
	RetryTimeout sim.Time
}

// MaxRetryCount is the largest RC retry_cnt: the verbs field is 3 bits. The
// retry timeout doubles on every retry, so a larger count would also run the
// backoff past what virtual time can hold.
const MaxRetryCount = 7

// DefaultTunables returns the paper's container-tuned values.
func DefaultTunables() Tunables {
	return Tunables{
		SMPEagerSize:            8 * 1024,
		SMPLengthQueue:          128 * 1024,
		IBAEagerThreshold:       17 * 1024,
		UseCMA:                  true,
		AllreduceLargeThreshold: 16 * 1024,
		RetryCount:              MaxRetryCount,
		RetryTimeout:            RetryTimeoutFromExponent(2), // 4.096us * 2^2
	}
}

// AllreduceAlgo names one flat Allreduce algorithm (or the auto selector).
type AllreduceAlgo uint8

const (
	// AllreduceAuto selects per call: recursive doubling for small or
	// unaligned buffers, ring on fully co-resident deployments, and
	// Rabenseifner otherwise for large aligned buffers.
	AllreduceAuto AllreduceAlgo = iota
	// AllreduceRecursiveDoubling is the latency-optimal log2(P)-round
	// exchange (with the standard fold for non-power-of-two worlds).
	AllreduceRecursiveDoubling
	// AllreduceRabenseifner is reduce-scatter by recursive halving followed
	// by an allgather by recursive doubling — bandwidth-optimal, but its
	// exchanges span the whole rank range.
	AllreduceRabenseifner
	// AllreduceRing is the reduce-scatter + allgather ring: 2(P-1) steps of
	// nearest-neighbor traffic, the algorithm data-parallel training
	// frameworks use for gradient exchange.
	AllreduceRing
	// AllreduceTree is a binomial reduce to rank 0 followed by a binomial
	// broadcast: 2·log2(P) rounds moving the full buffer each time. Never
	// auto-selected (dominated by recursive doubling in this cost model);
	// kept as a forced baseline for comparison tables.
	AllreduceTree

	// NumAllreduceAlgos sizes per-algorithm counter arrays.
	NumAllreduceAlgos = int(AllreduceTree) + 1
)

// String names the algorithm for tables and env parsing.
func (a AllreduceAlgo) String() string {
	switch a {
	case AllreduceAuto:
		return "auto"
	case AllreduceRecursiveDoubling:
		return "rd"
	case AllreduceRabenseifner:
		return "rab"
	case AllreduceRing:
		return "ring"
	case AllreduceTree:
		return "tree"
	}
	return fmt.Sprintf("algo(%d)", int(a))
}

// ParseAllreduceAlgo parses an algorithm name as accepted by
// MV2_ALLREDUCE_ALGO (long names and the short table names both work).
func ParseAllreduceAlgo(s string) (AllreduceAlgo, error) {
	switch s {
	case "auto", "":
		return AllreduceAuto, nil
	case "rd", "recursive-doubling":
		return AllreduceRecursiveDoubling, nil
	case "rab", "rabenseifner":
		return AllreduceRabenseifner, nil
	case "ring":
		return AllreduceRing, nil
	case "tree":
		return AllreduceTree, nil
	}
	return AllreduceAuto, fmt.Errorf("unknown allreduce algorithm %q (want auto, rd, rab, ring, or tree)", s)
}

// RetryTimeoutFromExponent converts the verbs local-ACK-timeout encoding
// (MV2_DEFAULT_TIME_OUT) into virtual time: 4.096us * 2^exp.
func RetryTimeoutFromExponent(exp int) sim.Time {
	if exp < 0 {
		exp = 0
	}
	if exp > 31 {
		exp = 31
	}
	return sim.Time(4096) * sim.Nanosecond << uint(exp)
}

// Validate rejects configurations the runtime cannot operate with.
func (t Tunables) Validate() error {
	if t.SMPEagerSize < 64 {
		return fmt.Errorf("tunables: SMP_EAGER_SIZE = %d, need >= 64", t.SMPEagerSize)
	}
	if t.SMPLengthQueue < t.SMPEagerSize {
		return fmt.Errorf("tunables: SMPI_LENGTH_QUEUE (%d) below SMP_EAGER_SIZE (%d): eager messages could never fit the ring",
			t.SMPLengthQueue, t.SMPEagerSize)
	}
	if t.IBAEagerThreshold < 128 {
		return fmt.Errorf("tunables: MV2_IBA_EAGER_THRESHOLD = %d, need >= 128", t.IBAEagerThreshold)
	}
	if int(t.AllreduceAlgo) >= NumAllreduceAlgos {
		return fmt.Errorf("tunables: allreduce algorithm code %d out of range", int(t.AllreduceAlgo))
	}
	if t.RetryCount < 0 || t.RetryCount > MaxRetryCount {
		return fmt.Errorf("tunables: retry count = %d, need 0..%d (the verbs retry_cnt field is 3 bits)", t.RetryCount, MaxRetryCount)
	}
	if t.RetryTimeout < 0 {
		return fmt.Errorf("tunables: retry timeout = %v, need >= 0", t.RetryTimeout)
	}
	return nil
}

// Mode selects between the stock MVAPICH2 behaviour and the paper's design.
type Mode int

const (
	// ModeDefault is stock MVAPICH2: locality is decided by comparing
	// hostnames, so co-resident containers (unique hostnames) look remote
	// and their traffic goes through the HCA loopback.
	ModeDefault Mode = iota
	// ModeLocalityAware is the paper's design: the Container Locality
	// Detector discovers co-resident containers through the shared-memory
	// container list, and their traffic is rescheduled onto SHM/CMA.
	ModeLocalityAware
)

// String names the mode for output.
func (m Mode) String() string {
	if m == ModeLocalityAware {
		return "locality-aware"
	}
	return "default"
}
