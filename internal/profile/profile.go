// Package profile is an mpiP-style profiler for the simulated MPI runtime:
// per-rank time spent inside MPI calls (by call name) versus computation,
// plus per-channel message-transfer-operation and byte counts. It feeds the
// paper's Fig. 3(a) breakdown and Table I channel statistics.
package profile

import (
	"sort"

	"cmpi/internal/core"
	"cmpi/internal/sim"
)

// ChannelStats counts transfer operations and bytes per channel, in the
// sense of the paper's Table I: one SHM ring-cell push, one process_vm_*
// call, or one HCA work-request post is one operation.
type ChannelStats struct {
	Ops   [3]uint64 // indexed by core.Channel
	Bytes [3]uint64
}

// Add records one transfer operation of n bytes on channel ch.
func (c *ChannelStats) Add(ch core.Channel, n int) {
	c.Ops[ch]++
	c.Bytes[ch] += uint64(n)
}

// Merge accumulates other into c.
func (c *ChannelStats) Merge(other *ChannelStats) {
	for i := range c.Ops {
		c.Ops[i] += other.Ops[i]
		c.Bytes[i] += other.Bytes[i]
	}
}

// CollAlgoStats counts which Allreduce algorithm each collective call ran,
// indexed by core.AllreduceAlgo (the Auto slot stays zero: the selector
// always records the concrete algorithm it resolved to).
type CollAlgoStats struct {
	Calls [core.NumAllreduceAlgos]uint64
	Bytes [core.NumAllreduceAlgos]uint64
}

// Add records one Allreduce call of n bytes run with algorithm a.
func (c *CollAlgoStats) Add(a core.AllreduceAlgo, n int) {
	c.Calls[a]++
	c.Bytes[a] += uint64(n)
}

// Merge accumulates other into c.
func (c *CollAlgoStats) Merge(other *CollAlgoStats) {
	for i := range c.Calls {
		c.Calls[i] += other.Calls[i]
		c.Bytes[i] += other.Bytes[i]
	}
}

// TotalCalls sums calls over all algorithms.
func (c CollAlgoStats) TotalCalls() uint64 {
	var n uint64
	for _, v := range c.Calls {
		n += v
	}
	return n
}

// Dominant returns the algorithm that moved the most bytes (ties broken by
// lowest code) and false when no Allreduce ran. Byte-weighted so the tiny
// bookkeeping allreduces benchmarks issue for timing cannot swamp the
// algorithm the measured payload actually used.
func (c CollAlgoStats) Dominant() (core.AllreduceAlgo, bool) {
	if c.TotalCalls() == 0 {
		return 0, false
	}
	best := 0
	for i := 1; i < len(c.Bytes); i++ {
		if c.Bytes[i] > c.Bytes[best] {
			best = i
		}
	}
	return core.AllreduceAlgo(best), true
}

// FaultStats counts a rank's resilience activity under fault injection:
// transport retries it observed and channel fallbacks it performed.
type FaultStats struct {
	// Retransmits is the number of RC retransmissions observed on this
	// rank's completions.
	Retransmits uint64
	// RetryExhausted counts connections this rank saw break after running
	// out of retries.
	RetryExhausted uint64
	// ShmFallbacks counts sends rerouted to the HCA channel because the
	// shared-memory ring could not be attached.
	ShmFallbacks uint64
	// CMAFallbacks counts rendezvous transfers degraded from the CMA
	// single-copy to SHM streaming after a process_vm_readv failure.
	CMAFallbacks uint64
	// DetectorFallbacks is 1 when the Container Locality Detector could not
	// attach its segment and the rank degraded to hostname-based locality.
	DetectorFallbacks uint64
}

// Merge accumulates other into f.
func (f *FaultStats) Merge(other *FaultStats) {
	f.Retransmits += other.Retransmits
	f.RetryExhausted += other.RetryExhausted
	f.ShmFallbacks += other.ShmFallbacks
	f.CMAFallbacks += other.CMAFallbacks
	f.DetectorFallbacks += other.DetectorFallbacks
}

// Total is the sum of all counters (nonzero iff any fault handling ran).
func (f FaultStats) Total() uint64 {
	return f.Retransmits + f.RetryExhausted + f.ShmFallbacks + f.CMAFallbacks + f.DetectorFallbacks
}

// SimStats surfaces host-side engine and allocator-pool health for one job:
// scheduler churn (dispatched events, dropped and coalesced wakes, event-queue
// high-water mark) and buffer recycling effectiveness. These are host-time
// diagnostics — they do not influence any simulated result.
type SimStats struct {
	// Dispatched is the number of events the engine popped and handled.
	Dispatched uint64
	// Resumes is the subset that handed control to a process.
	Resumes uint64
	// StaleWakes is the subset dropped as stale process wakes.
	StaleWakes uint64
	// CoalescedWakes counts duplicate wakes suppressed before enqueueing.
	CoalescedWakes uint64
	// MaxHeapDepth is the event queue's high-water mark.
	MaxHeapDepth int
	// ParallelBatches, MaxBatchWidth, RegroupYields, NarrowedPairs and
	// PeakProcBytes are always zero: the engine has one dispatch queue and
	// forms no epoch groups, and nothing computes per-process bytes from
	// struct sizes, because memory is measured (HeapSys gates, alloc_mb). The
	// fields stay only because bench/ reads them, and bench/ changes only
	// together with the benchmark's contract (ROADMAP item 1 deletes both).
	ParallelBatches uint64
	MaxBatchWidth   int
	RegroupYields   uint64
	NarrowedPairs   uint64
	PeakProcBytes   uint64
	// BufPool aggregates the byte-buffer pools, one per rank: staging,
	// payload snapshots and the wire buffers of the rank's HCA.
	BufPool core.PoolCounters
	// DepotRefused is the bytes of the finished job's free buffers and
	// objects that the process-wide depot, full, refused (core.Drain.Refused).
	// A repeat of the job allocates them again. Zero until the run has ended.
	DepotRefused uint64
	// ObjPool aggregates the object free lists of the ranks (packets, send
	// ops, envelopes, requests), by core.FreeList's law: Gets = Hits + Depot
	// + the objects allocated, Depot counting what the process-wide depot
	// served as BufPool.Depot does for buffers. The devices' event records
	// and CQ batches are not counted here (ib.Fabric.ObjCounters has them).
	ObjPool core.PoolCounters
}

// RankProfile is one rank's profile.
type RankProfile struct {
	// Rank is the global rank.
	Rank int
	// MPITime accumulates time per MPI call name ("Isend", "Allreduce", ...).
	MPITime map[string]sim.Time
	// TotalMPI is the total top-level MPI time.
	TotalMPI sim.Time
	// AppTime is the rank's measured span (set by the runtime between the
	// post-init and pre-finalize barriers); compute time = AppTime - TotalMPI.
	AppTime sim.Time
	// Channels counts transfer ops/bytes initiated by this rank.
	Channels ChannelStats
	// Coll counts which algorithm this rank's Allreduce calls ran.
	Coll CollAlgoStats
	// Faults counts retries and channel fallbacks this rank performed.
	Faults FaultStats

	depth     int
	enteredAt sim.Time
}

// NewRankProfile returns an empty per-rank profile.
func NewRankProfile(rank int) *RankProfile {
	return &RankProfile{Rank: rank, MPITime: make(map[string]sim.Time)}
}

// Enter marks entry into a (possibly nested) MPI call at time t. Only the
// outermost call accumulates, like mpiP's call-site attribution.
func (rp *RankProfile) Enter(t sim.Time) bool {
	rp.depth++
	if rp.depth == 1 {
		rp.enteredAt = t
		return true
	}
	return false
}

// Exit marks exit from an MPI call named call at time t.
func (rp *RankProfile) Exit(call string, t sim.Time) {
	rp.depth--
	if rp.depth == 0 {
		d := t - rp.enteredAt
		rp.MPITime[call] += d
		rp.TotalMPI += d
	}
}

// ComputeTime is the non-MPI portion of the rank's span.
func (rp *RankProfile) ComputeTime() sim.Time {
	c := rp.AppTime - rp.TotalMPI
	if c < 0 {
		return 0
	}
	return c
}

// Profile aggregates all ranks of one job.
type Profile struct {
	Ranks []*RankProfile
	// Sim holds the job's engine/pool statistics, filled in by World.Run.
	Sim SimStats
}

// New builds a profile for size ranks.
func New(size int) *Profile {
	p := &Profile{Ranks: make([]*RankProfile, size)}
	for i := range p.Ranks {
		p.Ranks[i] = NewRankProfile(i)
	}
	return p
}

// TotalChannels sums channel stats over all ranks (the Table I view).
func (p *Profile) TotalChannels() ChannelStats {
	var total ChannelStats
	for _, rp := range p.Ranks {
		total.Merge(&rp.Channels)
	}
	return total
}

// TotalCollAlgos sums Allreduce algorithm stats over all ranks.
func (p *Profile) TotalCollAlgos() CollAlgoStats {
	var total CollAlgoStats
	for _, rp := range p.Ranks {
		total.Merge(&rp.Coll)
	}
	return total
}

// TotalFaults sums fault-handling stats over all ranks.
func (p *Profile) TotalFaults() FaultStats {
	var total FaultStats
	for _, rp := range p.Ranks {
		total.Merge(&rp.Faults)
	}
	return total
}

// CommFraction is the job-mean fraction of app time spent in MPI calls
// (the Fig. 3(a) communication share).
func (p *Profile) CommFraction() float64 {
	var mpi, app sim.Time
	for _, rp := range p.Ranks {
		mpi += rp.TotalMPI
		app += rp.AppTime
	}
	if app == 0 {
		return 0
	}
	return float64(mpi) / float64(app)
}

// MeanComputeTime is the mean per-rank compute time — the paper observes it
// stays ~constant (≈17 ms) across container scenarios.
func (p *Profile) MeanComputeTime() sim.Time {
	if len(p.Ranks) == 0 {
		return 0
	}
	var sum sim.Time
	for _, rp := range p.Ranks {
		sum += rp.ComputeTime()
	}
	return sum / sim.Time(len(p.Ranks))
}

// TopCalls returns call names ordered by aggregate time, descending.
func (p *Profile) TopCalls() []string {
	agg := map[string]sim.Time{}
	for _, rp := range p.Ranks {
		for call, d := range rp.MPITime {
			agg[call] += d
		}
	}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if agg[names[i]] != agg[names[j]] {
			return agg[names[i]] > agg[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
