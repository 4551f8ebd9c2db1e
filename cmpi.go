// Package cmpi is a locality-aware MPI library for container-based HPC
// clouds, reproducing Zhang, Lu and Panda, "High Performance MPI Library
// for Container-Based HPC Cloud on InfiniBand Clusters" (ICPP 2016) as a
// deterministic virtual-time simulation.
//
// The library models a cluster of multi-socket InfiniBand hosts running
// Docker-style containers, and an MVAPICH2-like MPI runtime with three
// communication channels: user-space shared memory (SHM), Cross Memory
// Attach (CMA), and the InfiniBand HCA. In its default mode the runtime —
// like stock MPI — detects locality by hostname, so co-resident containers
// look remote and talk through the slow HCA loopback. In locality-aware
// mode the paper's Container Locality Detector discovers co-residence
// through a byte-per-rank list in host-wide shared memory and reroutes
// traffic onto SHM/CMA.
//
// Quick start:
//
//	clu := cmpi.NewCluster(cmpi.ClusterSpec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
//	deploy, _ := cmpi.Containers(clu, 2, 8, cmpi.PaperScenarioOpts())
//	world, _ := cmpi.NewWorld(deploy, cmpi.DefaultOptions())
//	world.Run(func(r *cmpi.Rank) error {
//		sum := r.AllreduceFloat64(float64(r.Rank()), cmpi.SumFloat64)
//		if r.Rank() == 0 {
//			fmt.Printf("sum of ranks: %v at t=%v\n", sum, r.Now())
//		}
//		return nil
//	})
//
// All communication moves real bytes; all time is virtual and
// deterministic (identical runs produce identical timings).
package cmpi

import (
	"io"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/graph500"
	"cmpi/internal/mpi"
	"cmpi/internal/npb"
	"cmpi/internal/osu"
	"cmpi/internal/perf"
	"cmpi/internal/profile"
	rec "cmpi/internal/recover"
	"cmpi/internal/sim"
	"cmpi/internal/trace"
)

// Cluster and deployment model.
type (
	// ClusterSpec describes the hardware of a homogeneous cluster.
	ClusterSpec = cluster.Spec
	// Cluster is an instantiated set of hosts.
	Cluster = cluster.Cluster
	// Host is one physical node.
	Host = cluster.Host
	// Container is one isolated execution environment on a host.
	Container = cluster.Container
	// RunOpts mirrors the docker-run flags relevant to the paper.
	RunOpts = cluster.RunOpts
	// ScenarioOpts configures the standard deployment builders.
	ScenarioOpts = cluster.ScenarioOpts
	// Deployment is a rank-to-container mapping for one job.
	Deployment = cluster.Deployment
	// Placement binds one rank to an environment and core.
	Placement = cluster.Placement
)

// MPI runtime.
type (
	// Options configures an MPI job (mode, tunables, cost model).
	Options = mpi.Options
	// World is one MPI job.
	World = mpi.World
	// Rank is one MPI process; communication methods hang off it, and
	// AllocMem/FreeMem (MPI_Alloc_mem/MPI_Free_mem) lend it message memory
	// from the library's pool: contents undefined, reused by later worlds.
	Rank = mpi.Rank
	// Request is a nonblocking operation handle.
	Request = mpi.Request
	// Status describes a completed receive.
	Status = mpi.Status
	// Win is a one-sided communication window, over the caller's memory
	// (Rank.WinCreate) or the pool's (Rank.WinAllocate, returned at Free).
	Win = mpi.Win
	// Comm is a communicator (subset of ranks with a private matching
	// context), created with Rank.CommWorld and Comm.Split.
	Comm = mpi.Comm
	// ReduceOp combines byte buffers elementwise for reductions.
	ReduceOp = mpi.ReduceOp
	// Mode selects hostname-based or locality-aware channel selection.
	Mode = core.Mode
	// Tunables are the MVAPICH-style channel parameters.
	Tunables = core.Tunables
	// PerfParams is the calibrated hardware cost model.
	PerfParams = perf.Params
	// Time is virtual time (picosecond resolution).
	Time = sim.Time
	// Profile is the mpiP-style job profile.
	Profile = profile.Profile
)

// Modes and wildcards.
const (
	// ModeDefault is stock hostname-based locality (the paper's baseline).
	ModeDefault = core.ModeDefault
	// ModeLocalityAware enables the Container Locality Detector.
	ModeLocalityAware = core.ModeLocalityAware
	// AnySource matches any sender in Recv/Irecv.
	AnySource = mpi.AnySource
	// AnyTag matches any tag in Recv/Irecv.
	AnyTag = mpi.AnyTag
	// Undefined is the MPI_UNDEFINED split color (join no communicator).
	Undefined = mpi.Undefined
)

// Reduction operators.
var (
	// SumFloat64 adds float64 vectors.
	SumFloat64 = mpi.SumFloat64
	// MaxFloat64 takes elementwise float64 maxima.
	MaxFloat64 = mpi.MaxFloat64
	// SumInt64 adds int64 vectors.
	SumInt64 = mpi.SumInt64
	// MinInt64 takes elementwise int64 minima.
	MinInt64 = mpi.MinInt64
	// MaxInt64 takes elementwise int64 maxima.
	MaxInt64 = mpi.MaxInt64
	// BOr is bitwise OR over raw bytes.
	BOr = mpi.BOr
)

// Fault injection and error handling.
type (
	// FaultPlan is a deterministic fault schedule; hand one to
	// Options.FaultPlan and identical plans produce identical outcomes.
	FaultPlan = fault.Plan
	// FaultEvent is one scheduled fault in a plan.
	FaultEvent = fault.Event
	// FaultKind selects a fault class (LinkFlap, SendDrop, RankCrash, ...).
	FaultKind = fault.Kind
	// FaultStats counts retransmissions and channel fallbacks per rank.
	FaultStats = profile.FaultStats
	// ErrorHandler selects job behaviour on channel errors
	// (ErrorsAreFatal or ErrorsReturn), like MPI_Errhandler.
	ErrorHandler = mpi.ErrorHandler
	// RankError wraps a failure with the rank identity and virtual time.
	RankError = mpi.RankError
	// ChannelError reports a broken HCA channel to one peer.
	ChannelError = mpi.ChannelError
	// CrashError reports an injected rank crash.
	CrashError = mpi.CrashError
)

// Fault kinds (see FaultPlan builders for the usual way to schedule them).
const (
	LinkFlap      = fault.LinkFlap
	LinkDegrade   = fault.LinkDegrade
	LoopStall     = fault.LoopStall
	SendDrop      = fault.SendDrop
	ShmAttachFail = fault.ShmAttachFail
	CMAFail       = fault.CMAFail
	RankCrash     = fault.RankCrash
	Straggler     = fault.Straggler
)

// Error handlers and fault wildcards.
const (
	// ErrorsAreFatal aborts the job on the first channel error (default,
	// MPI_ERRORS_ARE_FATAL).
	ErrorsAreFatal = mpi.ErrorsAreFatal
	// ErrorsReturn completes affected requests with an error and lets ranks
	// continue (MPI_ERRORS_RETURN).
	ErrorsReturn = mpi.ErrorsReturn
	// AnyTarget is the FaultEvent host/rank wildcard.
	AnyTarget = fault.Any
)

// ErrInjected is the sentinel all injected faults wrap; test with errors.Is.
var ErrInjected = fault.ErrInjected

// Recovery: coordinated checkpointing, restart, and communicator shrink
// (see docs/FAULTS.md, "Recovery").
type (
	// RecoverOptions configures World.RunRecoverable (policy, restart
	// budget, checkpoint store).
	RecoverOptions = mpi.RecoverOptions
	// RecoverPolicy selects how a restart rebuilds the world: respawn the
	// casualties or shrink to the survivors.
	RecoverPolicy = rec.Policy
	// RecoverReport summarizes a recoverable run (attempts, failures,
	// final size, final virtual time).
	RecoverReport = rec.Report
	// CheckpointStore holds committed checkpoints across restarts.
	CheckpointStore = rec.Store
	// CheckpointSnapshot is one committed coordinated checkpoint.
	CheckpointSnapshot = rec.Snapshot
	// ProcFailedError reports a dead peer to a survivor under ErrorsRecover.
	ProcFailedError = mpi.ProcFailedError
	// CheckpointError reports an aborted checkpoint barrier.
	CheckpointError = mpi.CheckpointError
)

// Recovery policies and the ULFM-style error handler.
const (
	// ErrorsRecover keeps survivors running when a rank crashes
	// (ULFM-style): operations on dead peers fail fast and Comm.Shrink
	// repairs the communicator in-world.
	ErrorsRecover = mpi.ErrorsRecover
	// PolicyRespawn restarts with casualties respawned on surviving hosts.
	PolicyRespawn = rec.PolicyRespawn
	// PolicyShrink restarts with the world shrunk to the survivors.
	PolicyShrink = rec.PolicyShrink
)

// NewCheckpointStore returns an empty checkpoint store; share one across
// the restarts of a job via RecoverOptions.Store.
func NewCheckpointStore() *CheckpointStore { return rec.NewStore() }

// ShrinkFaultPlan ddmin-shrinks a failing fault plan to a minimal plan that
// still makes fails return true — the chaos harness's repro step.
func ShrinkFaultPlan(p *FaultPlan, fails func(*FaultPlan) bool) *FaultPlan {
	return fault.ShrinkPlan(p, fails)
}

// NewFaultPlan returns an empty fault plan for fluent building.
func NewFaultPlan() *FaultPlan { return fault.NewPlan() }

// RandomFaultPlan generates a seeded plan of n events over [0, span) for a
// hosts x ranks geometry — deterministic per seed, for stress testing.
func RandomFaultPlan(seed int64, hosts, ranks, n int, span Time) *FaultPlan {
	return fault.RandomPlan(seed, hosts, ranks, n, span)
}

// Structured tracing (see docs/TRACING.md).
type (
	// TraceRecorder streams a world's structured trace; set Options.Record.
	// A recorder is single-shot: build a fresh one per world.
	TraceRecorder = trace.Recorder
	// Trace is a decoded trace: header plus records in commit order.
	Trace = trace.Trace
	// TraceRecord is one traced event (message, protocol transition, fault).
	TraceRecord = trace.Record
	// TraceSummary is the result of replaying a trace offline: per-rank
	// channel counters, per-path latency, histograms, and fault totals.
	TraceSummary = trace.Summary
)

// NewTraceRecorder returns a recorder that streams the versioned trace to w
// as records commit; hand it to Options.Record. Recording keeps full
// epoch-parallel dispatch and writes byte-identical traces at every width.
func NewTraceRecorder(w io.Writer) *TraceRecorder { return trace.NewRecorder(w) }

// ReadTrace decodes a recorded trace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// ReplayTrace reconstructs a recorded run's profile counters, message-size
// histograms, and per-path latency from the trace alone — no world, no rank
// goroutines. Render the result with its Render method.
func ReplayTrace(tr *Trace) *TraceSummary { return trace.Replay(tr) }

// DiffTraces reports the first divergent record between two traces, or ""
// when they are identical — the fast regression check.
func DiffTraces(a, b *Trace) string { return trace.Diff(a, b) }

// RetryTimeoutFromExponent converts an MVAPICH-style local-ACK-timeout
// exponent (MV2_DEFAULT_TIME_OUT) to a virtual duration: 4.096us * 2^exp.
func RetryTimeoutFromExponent(exp int) Time { return core.RetryTimeoutFromExponent(exp) }

// NewCluster builds a cluster from spec (panics on invalid specs; use
// NewClusterE for graceful handling).
func NewCluster(spec ClusterSpec) *Cluster { return cluster.MustNew(spec) }

// NewClusterE builds a cluster from spec, returning a descriptive error for
// invalid specs instead of panicking.
func NewClusterE(spec ClusterSpec) (*Cluster, error) { return cluster.New(spec) }

// ChameleonSpec returns the paper's testbed: 16 nodes, 2x12 cores, FDR HCAs.
func ChameleonSpec() ClusterSpec { return cluster.ChameleonSpec() }

// Native deploys procs ranks directly on the hosts (no containers).
func Native(c *Cluster, procs int) (*Deployment, error) { return cluster.Native(c, procs) }

// Containers deploys procs ranks across containersPerHost containers on
// every host.
func Containers(c *Cluster, containersPerHost, procs int, opts ScenarioOpts) (*Deployment, error) {
	return cluster.Containers(c, containersPerHost, procs, opts)
}

// TwoContainersSockets builds the 2-rank pt2pt scenario of the paper's
// Figs. 8/9 (intra- or inter-socket container pair on one host).
func TwoContainersSockets(c *Cluster, sameSocket bool, opts ScenarioOpts) (*Deployment, error) {
	return cluster.TwoContainersSockets(c, sameSocket, opts)
}

// NativePair builds the matching native 2-rank scenario.
func NativePair(c *Cluster, sameSocket bool) (*Deployment, error) {
	return cluster.NativePair(c, sameSocket)
}

// PaperScenarioOpts is the paper's container config: privileged with host
// IPC and PID namespaces shared.
func PaperScenarioOpts() ScenarioOpts { return cluster.PaperScenarioOpts() }

// IsolatedScenarioOpts keeps containers fully namespace-isolated.
func IsolatedScenarioOpts() ScenarioOpts { return cluster.IsolatedScenarioOpts() }

// NewWorld builds an MPI job on a deployment.
func NewWorld(d *Deployment, opts Options) (*World, error) { return mpi.NewWorld(d, opts) }

// DefaultOptions is the paper's proposed configuration (locality-aware,
// container-tuned channel parameters).
func DefaultOptions() Options { return mpi.DefaultOptions() }

// StockOptions is unmodified MVAPICH2 behaviour (hostname locality).
func StockOptions() Options { return mpi.StockOptions() }

// OptionsFromEnv applies MVAPICH2-compatible MV2_* environment variables
// (MV2_SMP_EAGERSIZE, MV2_IBA_EAGER_THRESHOLD, MV2_CONTAINER_SUPPORT, ...)
// to a base option set.
func OptionsFromEnv(base Options, env map[string]string) (Options, error) {
	return mpi.OptionsFromEnv(base, env)
}

// DefaultTunables returns the paper-tuned channel parameters
// (SMP_EAGER_SIZE=8K, SMPI_LENGTH_QUEUE=128K, MV2_IBA_EAGER_THRESHOLD=17K).
func DefaultTunables() Tunables { return core.DefaultTunables() }

// DefaultPerfParams returns the cost model calibrated to the paper's
// Chameleon testbed.
func DefaultPerfParams() PerfParams { return perf.Default() }

// Workloads.
type (
	// Graph500Params configures the Graph 500 benchmark.
	Graph500Params = graph500.Params
	// Graph500Result is a Graph 500 outcome.
	Graph500Result = graph500.Result
	// NPBClass selects an NPB problem size.
	NPBClass = npb.Class
	// NPBResult is one NPB kernel outcome.
	NPBResult = npb.Result
	// OSUConfig controls micro-benchmark iteration counts.
	OSUConfig = osu.Config
	// OSUSeries is a micro-benchmark sweep over message sizes.
	OSUSeries = osu.Series
)

// NPB classes.
const (
	ClassS = npb.ClassS
	ClassW = npb.ClassW
	ClassA = npb.ClassA
	ClassB = npb.ClassB
)

// RunGraph500 executes Graph 500 on a world.
func RunGraph500(w *World, p Graph500Params) (Graph500Result, error) { return graph500.Run(w, p) }

// Graph500Defaults returns the paper's Graph 500 configuration at a scale.
func Graph500Defaults(scale int) Graph500Params { return graph500.DefaultParams(scale) }

// NPB kernels.
var (
	// RunEP is the embarrassingly parallel kernel.
	RunEP = npb.RunEP
	// RunCG is the conjugate-gradient kernel.
	RunCG = npb.RunCG
	// RunFT is the FFT/transpose kernel.
	RunFT = npb.RunFT
	// RunIS is the integer-sort kernel.
	RunIS = npb.RunIS
	// RunMG is the multigrid kernel.
	RunMG = npb.RunMG
)

// OSU micro-benchmarks.
var (
	// OSULatency is the osu_latency ping-pong (us).
	OSULatency = osu.Latency
	// OSUBandwidth is osu_bw (MB/s).
	OSUBandwidth = osu.Bandwidth
	// OSUBiBandwidth is osu_bibw (MB/s).
	OSUBiBandwidth = osu.BiBandwidth
	// OSUMessageRate is the message-rate variant of osu_bw (msg/s).
	OSUMessageRate = osu.MessageRate
	// OSUPutLatency / OSUGetLatency are the one-sided latency benches (us).
	OSUPutLatency = osu.PutLatency
	OSUGetLatency = osu.GetLatency
	// OSUPutBandwidth / OSUGetBandwidth / OSUPutBiBandwidth are the
	// one-sided bandwidth benches (MB/s).
	OSUPutBandwidth   = osu.PutBandwidth
	OSUGetBandwidth   = osu.GetBandwidth
	OSUPutBiBandwidth = osu.PutBiBandwidth
)

// DefaultOSUConfig mirrors OSU defaults scaled for simulation.
func DefaultOSUConfig() OSUConfig { return osu.DefaultConfig() }

// PowersOfTwo enumerates message sizes {lo, 2lo, ..., hi}.
func PowersOfTwo(lo, hi int) []int { return osu.PowersOfTwo(lo, hi) }

// Encoding helpers for reductions and typed buffers.
var (
	// EncodeFloat64s / DecodeFloat64s serialize little-endian float64 vectors.
	EncodeFloat64s = mpi.EncodeFloat64s
	DecodeFloat64s = mpi.DecodeFloat64s
	// EncodeInt64s / DecodeInt64s serialize little-endian int64 vectors.
	EncodeInt64s = mpi.EncodeInt64s
	DecodeInt64s = mpi.DecodeInt64s
	// AppendFloat64s / AppendInt64s encode behind dst's contents and
	// DecodeFloat64sInto / DecodeInt64sInto decode behind dst's, allocating
	// only when dst lacks the capacity: a loop that passes buf[:0] and keeps
	// the result reuses one buffer for every round.
	AppendFloat64s     = mpi.AppendFloat64s
	AppendInt64s       = mpi.AppendInt64s
	DecodeFloat64sInto = mpi.DecodeFloat64sInto
	DecodeInt64sInto   = mpi.DecodeInt64sInto
)

// EncodeFloat64 serializes one float64.
func EncodeFloat64(v float64) []byte { return mpi.EncodeFloat64s([]float64{v}) }

// DecodeFloat64 deserializes the float64 in b's first 8 bytes.
func DecodeFloat64(b []byte) float64 {
	var v [1]float64
	return mpi.DecodeFloat64sInto(v[:0], b[:8])[0]
}

// TimeFromSeconds converts seconds to virtual Time.
func TimeFromSeconds(s float64) Time { return sim.FromSeconds(s) }

// TimeFromMicros converts microseconds to virtual Time.
func TimeFromMicros(us float64) Time { return sim.FromMicros(us) }
