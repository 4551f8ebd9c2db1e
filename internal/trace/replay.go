package trace

import (
	"fmt"
	"io"
	"math/bits"

	"cmpi/internal/core"
	"cmpi/internal/profile"
	"cmpi/internal/sim"
)

// Replay reconstructs a run's observable statistics from its trace alone:
// per-rank channel profile counters, per-path message-size histograms, and
// per-path send→recv latency. No rank goroutines and no world are involved —
// the trace is the single input. The counters come from Credits, the fold a
// profiled world runs live on the same records, so a decoded recording
// replays to the live profiler's counters by construction.
//
// Per-call MPI wall-time counters (RankProfile.MPITime) are not encoded in
// the trace and are out of replay's scope.

// pathCount is how many PathCode values the per-path tables index (0..8).
const pathCount = 9

// PathStats aggregates the messages initiated on one path.
type PathStats struct {
	// Msgs and Bytes count send-initiation records on this path.
	Msgs, Bytes uint64
	// MinB/MaxB bound the observed message sizes (valid when Msgs > 0).
	MinB, MaxB int
	// Hist is the log2 size histogram: bucket 0 counts empty messages,
	// bucket k counts sizes in [2^(k-1), 2^k).
	Hist [33]uint64
	// LatCount/LatTotal/LatMin/LatMax describe matched send→recv latency on
	// the effective delivery path (a fallback send is matched under the path
	// the payload actually took).
	LatCount uint64
	LatTotal sim.Time
	LatMin   sim.Time
	LatMax   sim.Time
}

// Summary is the result of replaying one trace.
type Summary struct {
	// Ranks and Cell echo the trace header; Records is the record count.
	Ranks, Cell, Records int
	// PerRank reconstructs each rank's profiler channel counters.
	PerRank []profile.ChannelStats
	// PerPath aggregates messages by PathCode index.
	PerPath [pathCount]PathStats
	// ShmFallbacks / CMAFallbacks sum the per-rank fallback counts.
	ShmFallbacks, CMAFallbacks uint64
	// Rendezvous counts RTS handshakes (eager→rendezvous transitions).
	Rendezvous uint64
	// Retransmits sums retries over retransmit records; QPBreaks and
	// AttachFails count their records.
	Retransmits, QPBreaks, AttachFails uint64
	// CollAlgoCalls / CollAlgoBytes sum the per-rank Allreduce calls per
	// algorithm (coll-algo records, indexed by core.AllreduceAlgo).
	CollAlgoCalls [core.NumAllreduceAlgos]uint64
	CollAlgoBytes [core.NumAllreduceAlgos]uint64
	// UnmatchedSends counts send records with no matching receive (in-flight
	// at the end of a failed or truncated recording).
	UnmatchedSends int
	// Anomalies counts Credits' anomalies plus receives without a send —
	// zero for any complete recording.
	Anomalies int
}

// sendKey matches a receive completion to its send initiation: the runtime
// stamps every message with a per-(src,dst) sequence number (Record.Aux).
type sendKey struct {
	src, dst int
	seq      uint64
}

// Credits is the one implementation of the channel-credit rules. It folds
// trace records, one at a time and allocating nothing, into per-rank profile
// counters; Replay runs it over a decoded trace, a profiled world on the
// records its ranks build. The rules, in the sense of the paper's Table I:
//
//   - a send books the sender's operations for the whole message: one SHM
//     copy for self-delivery, one per ring cell on an SHM path (at least one
//     for eager), one HCA post on an HCA path;
//   - a CMA rendezvous is one process_vm_readv, booked at the receiver's recv;
//   - a shm-fallback cancels its send's booking and books one HCA post; a
//     cma-fallback books the sender's (Peer's) SHM fragments; each counts one
//     fallback on the record's rank;
//   - an RMA access books one operation on its channel, a coll-algo record
//     one Allreduce call; other records book nothing.
type Credits struct {
	// Cell is the SHM ring-cell payload in bytes (the trace header's Cell).
	Cell int
	// Ranks are the profiles credited, indexed by rank.
	Ranks []*profile.RankProfile
	// Anomalies counts records the rules cannot book: a rank outside Ranks,
	// an unknown path or algorithm, a fallback cancelling more than its
	// send booked.
	Anomalies int
}

// Add folds one record into the counters.
func (c *Credits) Add(r *Record) {
	switch r.Op {
	case OpSend, OpSsend:
		c.send(r.Rank, r.Path, r.Bytes, false)
	case OpRecv:
		if r.Path == PathOf(core.PathCMARndv) {
			c.book(r.Rank, core.ChannelCMA, 1, r.Bytes, false)
		}
	case OpShmFallback:
		if rp := c.rank(r.Rank); rp != nil {
			rp.Faults.ShmFallbacks++
		}
		c.send(r.Rank, r.Path, r.Bytes, true)
		c.book(r.Rank, core.ChannelHCA, 1, r.Bytes, false)
	case OpCMAFallback:
		if rp := c.rank(r.Rank); rp != nil {
			rp.Faults.CMAFallbacks++
		}
		c.book(r.Peer, core.ChannelSHM, c.frags(r.Bytes), r.Bytes, false)
	case OpRMAPut, OpRMAGet:
		// ChanSHM, ChanCMA, ChanHCA follow core.Channel's order.
		if r.Path < ChanSHM || r.Path > ChanHCA {
			c.Anomalies++
		} else {
			c.book(r.Rank, core.Channel(r.Path-ChanSHM), 1, r.Bytes, false)
		}
	case OpCollAlgo:
		if r.Aux >= uint64(core.NumAllreduceAlgos) {
			c.Anomalies++
		} else if rp := c.rank(r.Rank); rp != nil {
			rp.Coll.Calls[r.Aux]++
			rp.Coll.Bytes[r.Aux] += uint64(r.Bytes)
		}
	}
}

// send books, or cancels, the sender's operations for a message of n bytes
// started on path.
func (c *Credits) send(rank int, path PathCode, n int, cancel bool) {
	switch path {
	case PathSelf:
		c.book(rank, core.ChannelSHM, 1, n, cancel)
	case PathOf(core.PathSHMEager):
		c.book(rank, core.ChannelSHM, max(c.frags(n), 1), n, cancel)
	case PathOf(core.PathSHMRndv):
		c.book(rank, core.ChannelSHM, c.frags(n), n, cancel)
	case PathOf(core.PathCMARndv):
		// The single copy is the receiver's, booked at the recv.
	case PathOf(core.PathHCAEager), PathOf(core.PathHCARndv):
		c.book(rank, core.ChannelHCA, 1, n, cancel)
	default:
		c.Anomalies++
	}
}

// book adds ops operations moving n bytes on ch to rank's counters, or takes
// them away (cancel). No operation moves no bytes.
func (c *Credits) book(rank int, ch core.Channel, ops uint64, n int, cancel bool) {
	rp := c.rank(rank)
	if rp == nil || ops == 0 {
		return
	}
	cs, bytes := &rp.Channels, uint64(n)
	switch {
	case !cancel:
		cs.Ops[ch] += ops
		cs.Bytes[ch] += bytes
	case cs.Ops[ch] < ops || cs.Bytes[ch] < bytes:
		c.Anomalies++
	default:
		cs.Ops[ch] -= ops
		cs.Bytes[ch] -= bytes
	}
}

// rank is rank's profile, or nil (an anomaly) for a rank outside Ranks.
func (c *Credits) rank(rank int) *profile.RankProfile {
	if rank < 0 || rank >= len(c.Ranks) {
		c.Anomalies++
		return nil
	}
	return c.Ranks[rank]
}

// frags is the ring-cell fragment count of a streamed payload of n bytes.
func (c *Credits) frags(n int) uint64 {
	return uint64((n + c.Cell - 1) / c.Cell)
}

// Replay reconstructs a Summary from tr.
func Replay(tr *Trace) *Summary {
	s := &Summary{
		Ranks:   tr.Ranks,
		Cell:    tr.Cell,
		Records: len(tr.Records),
		PerRank: make([]profile.ChannelStats, tr.Ranks),
	}
	prof := profile.New(tr.Ranks)
	credits := Credits{Cell: tr.Cell, Ranks: prof.Ranks}
	inflight := make(map[sendKey]sim.Time) // each unmatched send's time
	for i := range tr.Records {
		r := &tr.Records[i]
		credits.Add(r)
		switch r.Op {
		case OpSend, OpSsend:
			if r.Path >= 0 && int(r.Path) < pathCount {
				p := &s.PerPath[r.Path]
				if p.Msgs == 0 || r.Bytes < p.MinB {
					p.MinB = r.Bytes
				}
				if r.Bytes > p.MaxB {
					p.MaxB = r.Bytes
				}
				p.Msgs++
				p.Bytes += uint64(r.Bytes)
				b := bits.Len(uint(r.Bytes))
				if b >= len(p.Hist) {
					b = len(p.Hist) - 1
				}
				p.Hist[b]++
			}
			inflight[sendKey{src: r.Rank, dst: r.Peer, seq: r.Aux}] = r.T

		case OpRecv:
			key := sendKey{src: r.Peer, dst: r.Rank, seq: r.Aux}
			sent, ok := inflight[key]
			if !ok {
				s.Anomalies++
				break
			}
			delete(inflight, key)
			if r.Path >= 0 && int(r.Path) < pathCount && r.T >= sent {
				p := &s.PerPath[r.Path]
				d := r.T - sent
				if p.LatCount == 0 || d < p.LatMin {
					p.LatMin = d
				}
				if d > p.LatMax {
					p.LatMax = d
				}
				p.LatCount++
				p.LatTotal += d
			}

		case OpRTS:
			s.Rendezvous++

		case OpRetransmit:
			s.Retransmits += r.Aux

		case OpQPBreak:
			s.QPBreaks++

		case OpAttachFail:
			s.AttachFails++
		}
	}
	for i, rp := range prof.Ranks {
		s.PerRank[i] = rp.Channels
	}
	faults, algos := prof.TotalFaults(), prof.TotalCollAlgos()
	s.ShmFallbacks, s.CMAFallbacks = faults.ShmFallbacks, faults.CMAFallbacks
	s.CollAlgoCalls, s.CollAlgoBytes = algos.Calls, algos.Bytes
	s.UnmatchedSends = len(inflight)
	s.Anomalies += credits.Anomalies
	return s
}

// Total sums the reconstructed per-rank channel stats (the Table I view).
func (s *Summary) Total() profile.ChannelStats {
	var total profile.ChannelStats
	for i := range s.PerRank {
		total.Merge(&s.PerRank[i])
	}
	return total
}

// Render writes the replay tables as aligned text.
func (s *Summary) Render(w io.Writer) {
	fmt.Fprintf(w, "trace replay: %d records, %d ranks, shm cell %d B\n\n", s.Records, s.Ranks, s.Cell)

	fmt.Fprintf(w, "per-rank channel operations (reconstructed profile counters)\n")
	fmt.Fprintf(w, "  %4s  %12s %14s  %12s %14s  %12s %14s\n",
		"rank", "shm ops", "shm bytes", "cma ops", "cma bytes", "hca ops", "hca bytes")
	for i := range s.PerRank {
		c := &s.PerRank[i]
		fmt.Fprintf(w, "  %4d  %12d %14d  %12d %14d  %12d %14d\n", i,
			c.Ops[core.ChannelSHM], c.Bytes[core.ChannelSHM],
			c.Ops[core.ChannelCMA], c.Bytes[core.ChannelCMA],
			c.Ops[core.ChannelHCA], c.Bytes[core.ChannelHCA])
	}
	t := s.Total()
	fmt.Fprintf(w, "  %4s  %12d %14d  %12d %14d  %12d %14d\n\n", "all",
		t.Ops[core.ChannelSHM], t.Bytes[core.ChannelSHM],
		t.Ops[core.ChannelCMA], t.Bytes[core.ChannelCMA],
		t.Ops[core.ChannelHCA], t.Bytes[core.ChannelHCA])

	fmt.Fprintf(w, "per-path messages and latency\n")
	fmt.Fprintf(w, "  %-10s %8s %14s %10s %10s %10s %12s %12s\n",
		"path", "msgs", "bytes", "min", "max", "matched", "lat mean", "lat max")
	for pc := PathCode(0); pc < pathCount; pc++ {
		p := &s.PerPath[pc]
		if p.Msgs == 0 {
			continue
		}
		mean := sim.Time(0)
		if p.LatCount > 0 {
			mean = p.LatTotal / sim.Time(p.LatCount)
		}
		fmt.Fprintf(w, "  %-10s %8d %14d %10d %10d %10d %12v %12v\n",
			pc, p.Msgs, p.Bytes, p.MinB, p.MaxB, p.LatCount, mean, p.LatMax)
	}

	// Log2 size histogram over all send initiations.
	var hist [33]uint64
	maxBucket := -1
	for pc := range s.PerPath {
		for b, n := range s.PerPath[pc].Hist {
			hist[b] += n
			if n > 0 && b > maxBucket {
				maxBucket = b
			}
		}
	}
	if maxBucket >= 0 {
		fmt.Fprintf(w, "\nmessage-size histogram (all paths)\n")
		for b := 0; b <= maxBucket; b++ {
			if hist[b] == 0 {
				continue
			}
			lo, hi := 0, 0
			if b > 0 {
				lo, hi = 1<<(b-1), 1<<b-1
			}
			fmt.Fprintf(w, "  %10d..%-10d %8d\n", lo, hi, hist[b])
		}
	}

	// Allreduce algorithm annotations (per-rank per-call records).
	var collTotal uint64
	for _, n := range s.CollAlgoCalls {
		collTotal += n
	}
	if collTotal > 0 {
		fmt.Fprintf(w, "\nallreduce algorithms (per-rank calls)\n")
		for a := 0; a < core.NumAllreduceAlgos; a++ {
			if s.CollAlgoCalls[a] == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-10s %8d calls %14d bytes\n",
				core.AllreduceAlgo(a), s.CollAlgoCalls[a], s.CollAlgoBytes[a])
		}
	}

	fmt.Fprintf(w, "\nprotocol and fault events\n")
	for _, row := range []struct {
		name string
		n    uint64
	}{
		{"rendezvous handshakes", s.Rendezvous},
		{"shm fallbacks", s.ShmFallbacks},
		{"cma fallbacks", s.CMAFallbacks},
		{"retransmits", s.Retransmits},
		{"qp breaks", s.QPBreaks},
		{"attach failures", s.AttachFails},
	} {
		fmt.Fprintf(w, "  %-22s %8d\n", row.name, row.n)
	}
	if s.UnmatchedSends > 0 || s.Anomalies > 0 {
		fmt.Fprintf(w, "  %-22s %8d\n", "unmatched sends", s.UnmatchedSends)
		fmt.Fprintf(w, "  %-22s %8d\n", "anomalies", s.Anomalies)
	}
}
