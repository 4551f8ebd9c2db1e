// Package recover holds the job-level recovery artifacts for the simulated
// MPI runtime: versioned coordinated-checkpoint snapshots (per-rank user
// state plus the residual in-flight channel state captured at engine
// quiescence), the in-memory store that survives a world teardown, and the
// recovery policies and reports used by World.RunRecoverable.
//
// The package completes the failure story started by internal/fault: fault
// gave the runtime deterministic failure *injection*; this package gives it
// deterministic failure *survival*. Snapshots have a line-text wire format
// (Encode/Decode) with the same design rules as the trace format — versioned
// header, human-greppable lines, byte-identical for identical runs at every
// dispatch width — so a checkpoint artifact is as reproducible as the run
// that produced it.
//
// The package name shadows the builtin recover; importers alias it
// (`rec "cmpi/internal/recover"`).
package recover

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"

	"cmpi/internal/sim"
)

// SnapshotVersion is the current snapshot wire-format version.
const SnapshotVersion = 1

// Message is one in-flight message captured by a coordinated checkpoint: an
// eager payload that had been delivered to the destination's unexpected queue
// but not yet matched by a receive. On restore it is re-injected as a
// complete unexpected envelope, so a receive posted after restart matches it
// exactly as it would have before the failure.
type Message struct {
	// Src is the sending rank (pre-restore numbering).
	Src int
	// Tag is the MPI tag.
	Tag int
	// Ctx is the communicator context id.
	Ctx int
	// Bytes is the payload length.
	Bytes int
	// Seq is the per-(src,dst) message sequence number, preserved so matching
	// order survives the restore.
	Seq uint64
	// Data is the payload.
	Data []byte
}

// Snapshot is one committed coordinated checkpoint: a consistent cut of the
// whole world at a virtual-time quiescence point.
type Snapshot struct {
	// Version is the wire-format version (SnapshotVersion).
	Version int
	// Epoch is the application's checkpoint counter: 1 for the first
	// checkpoint of a run, incrementing per commit.
	Epoch int
	// At is the virtual time of the commit (the quiescence point).
	At sim.Time
	// Ranks is the world size at capture.
	Ranks int
	// Blobs holds each rank's opaque user-state blob, indexed by rank
	// (FTI/SCR-style: the application owns the encoding).
	Blobs [][]byte
	// Mail holds the residual unexpected messages indexed by destination
	// rank, in the destination's unexpected-queue order.
	Mail [][]Message
	// SendSeq holds the non-zero per-(src,dst) message sequence counters,
	// keyed {src, dst}, so restored matching keeps the pre-failure numbering.
	// It is sparse: a rank that never sent to a peer has no entry, and the
	// snapshot stays linear in what was sent, not quadratic in the ranks.
	SendSeq map[[2]int]uint64
}

// Clone returns a deep copy, so a committed snapshot is immune to later
// mutation of the buffers it was captured from.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{Version: s.Version, Epoch: s.Epoch, At: s.At, Ranks: s.Ranks}
	c.Blobs = make([][]byte, len(s.Blobs))
	for i, b := range s.Blobs {
		c.Blobs[i] = append([]byte(nil), b...)
	}
	c.Mail = make([][]Message, len(s.Mail))
	for i, ms := range s.Mail {
		c.Mail[i] = make([]Message, len(ms))
		for j, m := range ms {
			m.Data = append([]byte(nil), m.Data...)
			c.Mail[i][j] = m
		}
	}
	c.SendSeq = maps.Clone(s.SendSeq)
	return c
}

// Encode renders the snapshot in the versioned line-text wire format. The
// output is deterministic: identical snapshots encode byte-identically.
func (s *Snapshot) Encode() []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "cmpi-ckpt v%d epoch=%d at=%d ranks=%d\n", s.Version, s.Epoch, int64(s.At), s.Ranks)
	for r, b := range s.Blobs {
		fmt.Fprintf(&buf, "blob %d %s\n", r, hex.EncodeToString(b))
	}
	var pairs [][2]int
	for k, seq := range s.SendSeq {
		if seq != 0 {
			pairs = append(pairs, k)
		}
	}
	slices.SortFunc(pairs, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	for _, k := range pairs {
		fmt.Fprintf(&buf, "seq %d %d %d\n", k[0], k[1], s.SendSeq[k])
	}
	for dst, ms := range s.Mail {
		for _, m := range ms {
			fmt.Fprintf(&buf, "mail %d %d %d %d %d %d %s\n",
				dst, m.Src, m.Tag, m.Ctx, m.Bytes, m.Seq, hex.EncodeToString(m.Data))
		}
	}
	return buf.Bytes()
}

// Decode parses a snapshot from its wire format, rejecting unknown versions
// and malformed lines.
func Decode(data []byte) (*Snapshot, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("ckpt: empty artifact")
	}
	s := &Snapshot{}
	var at int64
	if n, err := fmt.Sscanf(sc.Text(), "cmpi-ckpt v%d epoch=%d at=%d ranks=%d",
		&s.Version, &s.Epoch, &at, &s.Ranks); n != 4 || err != nil {
		return nil, fmt.Errorf("ckpt: bad header %q", sc.Text())
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("ckpt: unsupported version %d (have %d)", s.Version, SnapshotVersion)
	}
	// Every rank has a blob line, so the input bounds the rank count before
	// the per-rank tables are allocated.
	if blobs := bytes.Count(data, []byte("\nblob ")); s.Ranks < 0 || s.Ranks > blobs {
		return nil, fmt.Errorf("ckpt: rank count %d, but %d blob lines", s.Ranks, blobs)
	}
	s.At = sim.Time(at)
	s.Blobs = make([][]byte, s.Ranks)
	s.Mail = make([][]Message, s.Ranks)
	s.SendSeq = make(map[[2]int]uint64)
	inRange := func(r int) bool { return r >= 0 && r < s.Ranks }
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		var kind string
		if _, err := fmt.Sscanf(text, "%s", &kind); err != nil {
			return nil, fmt.Errorf("ckpt line %d: %v", line, err)
		}
		switch kind {
		case "blob":
			var r int
			var hx string
			n, err := fmt.Sscanf(text, "blob %d %s", &r, &hx)
			if err != nil && n < 1 {
				return nil, fmt.Errorf("ckpt line %d: bad blob record %q", line, text)
			}
			if !inRange(r) {
				return nil, fmt.Errorf("ckpt line %d: blob rank %d out of range", line, r)
			}
			if n == 2 { // n==1 with a trailing space means an empty blob
				b, err := hex.DecodeString(hx)
				if err != nil {
					return nil, fmt.Errorf("ckpt line %d: bad blob payload: %v", line, err)
				}
				s.Blobs[r] = b
			}
		case "seq":
			var src, dst int
			var v uint64
			if n, err := fmt.Sscanf(text, "seq %d %d %d", &src, &dst, &v); n != 3 || err != nil {
				return nil, fmt.Errorf("ckpt line %d: bad seq record %q", line, text)
			}
			if !inRange(src) || !inRange(dst) {
				return nil, fmt.Errorf("ckpt line %d: seq ranks (%d,%d) out of range", line, src, dst)
			}
			s.SendSeq[[2]int{src, dst}] = v
		case "mail":
			var m Message
			var dst int
			var hx string
			n, err := fmt.Sscanf(text, "mail %d %d %d %d %d %d %s",
				&dst, &m.Src, &m.Tag, &m.Ctx, &m.Bytes, &m.Seq, &hx)
			if err != nil && n < 6 {
				return nil, fmt.Errorf("ckpt line %d: bad mail record %q", line, text)
			}
			if !inRange(dst) || !inRange(m.Src) {
				return nil, fmt.Errorf("ckpt line %d: mail ranks (%d->%d) out of range", line, m.Src, dst)
			}
			if n == 7 {
				b, err := hex.DecodeString(hx)
				if err != nil {
					return nil, fmt.Errorf("ckpt line %d: bad mail payload: %v", line, err)
				}
				m.Data = b
			}
			if len(m.Data) != m.Bytes {
				return nil, fmt.Errorf("ckpt line %d: mail payload %d bytes, header says %d", line, len(m.Data), m.Bytes)
			}
			s.Mail[dst] = append(s.Mail[dst], m)
		default:
			return nil, fmt.Errorf("ckpt line %d: unknown record kind %q", line, kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: %v", err)
	}
	return s, nil
}

// Store is the checkpoint store: it outlives any single world, so a restarted
// world can restore what its predecessor committed. Commit keeps a deep copy;
// readers must not mutate returned snapshots.
type Store struct {
	snaps []*Snapshot
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Commit appends a deep copy of s, assigning the next epoch number if s has
// none (Epoch == 0).
func (st *Store) Commit(s *Snapshot) *Snapshot {
	c := s.Clone()
	if c.Version == 0 {
		c.Version = SnapshotVersion
	}
	if c.Epoch == 0 {
		c.Epoch = len(st.snaps) + 1
	}
	st.snaps = append(st.snaps, c)
	return c
}

// Latest returns the most recently committed snapshot, or nil.
func (st *Store) Latest() *Snapshot {
	if len(st.snaps) == 0 {
		return nil
	}
	return st.snaps[len(st.snaps)-1]
}

// Len reports the number of committed snapshots.
func (st *Store) Len() int { return len(st.snaps) }

// Policy selects how RunRecoverable rebuilds the world after a rank crash.
type Policy int

const (
	// PolicyRespawn replaces each crashed rank with a fresh process on a
	// healthy host (the crashed rank's host is treated as lost), keeping the
	// world size; the locality detector re-runs in the new world, so the
	// replacement's channels reschedule (SHM/CMA vs HCA) for its new home.
	PolicyRespawn Policy = iota
	// PolicyShrink drops the crashed ranks and renumbers the survivors into
	// a smaller world, ULFM MPI_Comm_shrink style.
	PolicyShrink
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyRespawn:
		return "respawn"
	case PolicyShrink:
		return "shrink"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// FailureRecord describes one rank failure RunRecoverable recovered from.
type FailureRecord struct {
	// Rank is the crashed rank (numbering of the world it crashed in).
	Rank int
	// At is the virtual time of the crash.
	At sim.Time
	// Action is the recovery policy applied.
	Action Policy
	// NewHost is the host the replacement landed on (respawn), or -1.
	NewHost int
}

// Report summarizes a RunRecoverable invocation.
type Report struct {
	// Attempts is the number of world runs, including the successful one.
	Attempts int
	// Failures lists the rank failures recovered from, in occurrence order.
	Failures []FailureRecord
	// FinalSize is the rank count of the world that completed.
	FinalSize int
	// Recovered reports whether any recovery happened (Attempts > 1).
	Recovered bool
	// FinalTime is the virtual runtime (slowest rank's body span) of the
	// last attempt. Virtual time restarts at zero in a rebuilt world, so a
	// restored attempt's span covers only the replayed tail.
	FinalTime sim.Time
}
