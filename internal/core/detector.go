package core

import (
	"bytes"
	"fmt"
	"slices"

	"cmpi/internal/cluster"
	"cmpi/internal/shmem"
	"cmpi/internal/sim"
)

// Publication-discipline costs for the lock-free ablation (Sec. IV-B of the
// paper argues for byte-granularity stores precisely to avoid the lock).
const (
	// LockFreePublishCost is one uncontended byte store plus the cache-line
	// flush to make it visible.
	LockFreePublishCost = 20 * sim.Nanosecond
	// LockedPublishHold is how long a mutex-protected list implementation
	// holds the lock per publication (acquire, store, release); concurrent
	// publishers on one host serialize at this granularity.
	LockedPublishHold = 150 * sim.Nanosecond
)

// LocalitySegmentPrefix names the host-wide shared segment holding the
// container list — the simulated analog of the paper's /dev/shm/locality.
const LocalitySegmentPrefix = "cmpi.locality."

// Detector is one rank's handle on the Container Locality Detector.
//
// The container list is a plain byte array with one byte per global rank.
// During MPI_Init every rank writes a nonzero membership byte at its own
// global-rank offset into the list of *its* host (reachable because the
// paper's containers share the host IPC namespace). A byte is the smallest
// unit of memory access that needs no lock, so concurrent publication is
// race-free without lock/unlock traffic; the whole list for a one-million
// rank job is only 1 MB (Sec. IV-B).
//
// After an out-of-band barrier, Snapshot recovers, from bytes alone:
// which ranks are co-resident, how many they are, and this rank's local
// ordering (its position among the set bytes). What a rank keeps is that
// list of co-residents, nothing per global rank: the byte list is the host's,
// and a rank's view of a million-rank job is as large as its host's share.
type Detector struct {
	rank int
	size int
	env  *cluster.Container
	seg  *shmem.Segment
}

// NewDetector attaches (creating if first) the host-wide container list for
// the given job. Ranks whose containers do not share an IPC namespace get
// *different* segments and therefore never observe each other — the
// detector then degrades gracefully to "only my own container is local",
// which is exactly the kernel-enforced truth.
func NewDetector(reg *shmem.Registry, jobID string, env *cluster.Container, rank, size int) (*Detector, error) {
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("locality detector: rank %d out of [0,%d)", rank, size)
	}
	seg, err := reg.CreateOrAttach(env, LocalitySegmentPrefix+jobID, size)
	if err != nil {
		return nil, fmt.Errorf("locality detector: %w", err)
	}
	return &Detector{rank: rank, size: size, env: env, seg: seg}, nil
}

// Publish writes this rank's membership byte at its global-rank position.
// Lock-free by construction: distinct ranks write distinct bytes.
func (d *Detector) Publish() {
	d.seg.Bytes()[d.rank] = 1
}

// Locality is the result of a detection round, from one rank's viewpoint.
type Locality struct {
	// LocalRanks lists co-resident global ranks in ascending order
	// (including the owner). Ascending position in the container list is
	// the paper's "local ordering".
	LocalRanks []int
	// LocalIndex is the owner's position within LocalRanks.
	LocalIndex int
}

// IsLocal reports whether global rank r was detected co-resident: a binary
// search of LocalRanks, asked once per peer, on first contact.
func (l *Locality) IsLocal(r int) bool {
	_, found := slices.BinarySearch(l.LocalRanks, r)
	return found
}

// LocalSize is the number of co-resident ranks (including the owner).
func (l *Locality) LocalSize() int { return len(l.LocalRanks) }

// Snapshot scans the container list and derives the locality view. Callers
// must have synchronized publication first (the runtime uses its bootstrap
// barrier), mirroring "once the membership update of all processes
// completes, the real communication can take place". The set bytes are
// counted first, so LocalRanks is the one allocation, of exactly its length.
func (d *Detector) Snapshot() Locality {
	list := d.seg.Bytes()[:d.size]
	n := len(list) - bytes.Count(list, []byte{0})
	loc := Locality{LocalRanks: make([]int, 0, n), LocalIndex: -1}
	for r, b := range list {
		if b == 0 {
			continue
		}
		if r == d.rank {
			loc.LocalIndex = len(loc.LocalRanks)
		}
		loc.LocalRanks = append(loc.LocalRanks, r)
	}
	return loc
}

// ListBytes reports the memory footprint of the container list, documenting
// the scalability argument of Sec. IV-B (1 MB per million ranks).
func (d *Detector) ListBytes() int { return d.size }
