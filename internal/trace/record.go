// Package trace is the structured record/replay subsystem for the simulated
// MPI runtime: versioned event records with virtual timestamps captured by
// hooks in internal/mpi, internal/ib, and internal/shmem, plus a replayer
// that reconstructs per-channel profile counters, message-size histograms,
// and per-path latency from the trace alone — no rank goroutines, no world.
//
// Recording is parallel-dispatch-safe: records ride the engine's emitter
// (sim.Proc.Emit), which buffers per epoch group and flushes in the
// deterministic (t, group, seq) commit order, so a traced world keeps
// epoch-parallel dispatch and a successful run produces a byte-identical
// trace at every CMPI_SIM_WORKERS width. Records appear in commit order:
// causally related records are ordered (a receive never precedes its send),
// but timestamps are not globally monotone — one epoch group may run ahead
// of another in virtual time before the barrier.
package trace

import (
	"fmt"

	"cmpi/internal/core"
	"cmpi/internal/sim"
)

// Op is the kind of one trace record.
type Op uint8

const (
	// OpSend is a send initiation with its selected channel path. Aux is the
	// per-(source,destination) message sequence number.
	OpSend Op = iota
	// OpSsend is a synchronous send initiation (forced rendezvous).
	OpSsend
	// OpRecv is a receive completion. Path is the effective delivery path;
	// Aux is the matched message's sequence number.
	OpRecv
	// OpShmFallback marks a send rerouted to the HCA channel because the
	// pair's shared-memory ring could not be attached. Path is the originally
	// selected path whose channel credit the reroute cancels.
	OpShmFallback
	// OpCMAFallback marks a rendezvous degraded from the CMA single-copy to
	// SHM streaming after a process_vm_readv failure. Emitted by the
	// receiver; Peer is the sender, which then streams the payload.
	OpCMAFallback
	// OpRTS is a rendezvous request-to-send (protocol transition into
	// rendezvous) on the recorded path.
	OpRTS
	// OpCTS is a rendezvous clear-to-send, emitted by the receiver.
	OpCTS
	// OpRMAPut is a one-sided put; Path carries the channel (ChanSHM/CMA/HCA).
	OpRMAPut
	// OpRMAGet is a one-sided get.
	OpRMAGet
	// OpRetransmit reports RC retransmissions spent on one transmission:
	// Peer is the posting host, Aux is the retry count.
	OpRetransmit
	// OpQPBreak reports an RC pair broken after retry exhaustion: Peer is
	// the posting host, Aux is the retries spent.
	OpQPBreak
	// OpAttachFail reports a vetoed shared-memory segment attach: Peer is
	// the host index.
	OpAttachFail
	// OpCkpt marks one rank's participation in a committed coordinated
	// checkpoint: Bytes is the rank's snapshot blob size, Aux the epoch.
	OpCkpt
	// OpCollAlgo records which algorithm one rank's Allreduce call ran:
	// Bytes is the buffer size, Aux the core.AllreduceAlgo code. Pure
	// annotation — it carries no message and no channel credit.
	OpCollAlgo
)

var opNames = [...]string{
	OpSend:        "send",
	OpSsend:       "ssend",
	OpRecv:        "recv",
	OpShmFallback: "shm-fallback",
	OpCMAFallback: "cma-fallback",
	OpRTS:         "rts",
	OpCTS:         "cts",
	OpRMAPut:      "rma-put",
	OpRMAGet:      "rma-get",
	OpRetransmit:  "retransmit",
	OpQPBreak:     "qp-break",
	OpAttachFail:  "attach-fail",
	OpCkpt:        "ckpt",
	OpCollAlgo:    "coll-algo",
}

// String names the op as encoded on the wire.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// opByName inverts String for the reader.
var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		m[name] = Op(op)
	}
	return m
}()

// PathCode identifies the channel path a record refers to. Values 0..4
// mirror core.Path; the extra codes cover self-delivery, raw channels (RMA
// records), and records with no path at all (fault events).
type PathCode int8

const (
	// PathNone marks records without a path (fault events).
	PathNone PathCode = -1
	// PathSelf is the local-copy delivery of a rank sending to itself.
	PathSelf PathCode = 5
	// ChanSHM..ChanHCA name a raw channel for RMA records, whose accesses
	// are classified by channel rather than by protocol path.
	ChanSHM PathCode = 6
	ChanCMA PathCode = 7
	ChanHCA PathCode = 8
)

// PathOf converts a core protocol path to its trace code.
func PathOf(p core.Path) PathCode { return PathCode(p) }

// Path returns the core protocol path for codes 0..4.
func (pc PathCode) Path() (core.Path, bool) {
	if pc >= 0 && pc <= PathCode(core.PathHCARndv) {
		return core.Path(pc), true
	}
	return 0, false
}

// String names the path code as encoded on the wire.
func (pc PathCode) String() string {
	switch {
	case pc == PathNone:
		return "none"
	case pc == PathSelf:
		return "self"
	case pc == ChanSHM:
		return "shm"
	case pc == ChanCMA:
		return "cma"
	case pc == ChanHCA:
		return "hca"
	default:
		if p, ok := pc.Path(); ok {
			return p.String()
		}
		return fmt.Sprintf("path(%d)", int(pc))
	}
}

// pathByName inverts String for the reader.
var pathByName = map[string]PathCode{
	"none": PathNone, "self": PathSelf, "shm": ChanSHM, "cma": ChanCMA, "hca": ChanHCA,
	core.PathSHMEager.String(): PathOf(core.PathSHMEager),
	core.PathCMARndv.String():  PathOf(core.PathCMARndv),
	core.PathSHMRndv.String():  PathOf(core.PathSHMRndv),
	core.PathHCAEager.String(): PathOf(core.PathHCAEager),
	core.PathHCARndv.String():  PathOf(core.PathHCARndv),
}

// Record is one structured trace event. Field semantics vary slightly by Op
// (see the Op constants): message records carry rank/peer/tag/ctx/bytes and
// the message sequence in Aux; fault records carry the host index in Peer
// and Rank = -1.
type Record struct {
	// T is the virtual timestamp in raw picoseconds.
	T sim.Time
	// Op is the record kind.
	Op Op
	// Path is the channel path (or channel, or PathNone).
	Path PathCode
	// Rank is the emitting rank (-1 for substrate fault events).
	Rank int
	// Peer is the far-end rank, or the host index for fault events.
	Peer int
	// Tag is the MPI tag (message records).
	Tag int
	// Ctx is the communicator context id.
	Ctx int
	// Bytes is the message payload size.
	Bytes int
	// Aux is the per-(src,dst) message sequence for send/recv records and
	// the retry count for retransmit/qp-break records.
	Aux uint64
}
