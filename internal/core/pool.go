package core

import "math/bits"

// Buffer pooling for the per-message hot paths.
//
// Every transfer in the simulator used to allocate fresh []byte snapshots —
// wire headers, eager payload copies, ring fragments — which made the host
// garbage collector the dominant cost of regenerating the paper's tables.
// BufPool keeps freed buffers in size-class free lists, one class per power of
// two, so steady state pt2pt traffic recycles the same handful of buffers.
//
// The pool is deliberately lock-free-because-single-owner: a BufPool belongs to
// one piece of simulation state — a rank, one direction of a shared-memory
// ring, the sending side of a queue pair — and is only touched from an epoch
// group that owns that state's dispatch resources (sim.Res). Epoch dispatch
// runs causally independent groups concurrently, so a pool must never be
// reachable from two groups at once: give every owner its own pool instead of
// sharing one per world or per fabric.

const (
	// poolMinShift is the smallest pooled class (32 B): below that the
	// allocation is cheaper than the bookkeeping.
	poolMinShift = 5
	// poolMaxShift is the largest pooled class (4 MiB), comfortably above
	// the biggest OSU sweep message; larger requests fall through to the
	// allocator.
	poolMaxShift = 22
	// Classes from poolSlackShift (1 KiB) up hold poolSlack bytes more than
	// their power of two. Payloads come in powers of two and travel behind a
	// header (32 B on the HCA wire, mpi's hcaHdrLen), so exact classes would
	// put every such message in a buffer twice its size. Smaller classes stay
	// exact: 64 B on a 64 B buffer is no saving.
	poolSlackShift = 10
	poolSlack      = 64
)

// classCap is the capacity of the buffers in a size class.
func classCap(c int) int {
	if c < poolSlackShift {
		return 1 << c
	}
	return 1<<c + poolSlack
}

// PoolCounters records pool effectiveness for profile.SimStats.
type PoolCounters struct {
	// Gets is the number of buffer requests served (pooled classes only).
	Gets uint64
	// Hits is the subset served by recycling instead of allocating.
	Hits uint64
}

// HitRate is Hits/Gets, or 0 before any request.
func (c PoolCounters) HitRate() float64 {
	if c.Gets == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Gets)
}

// BufPool is a size-classed []byte free list. Get returns a length-n buffer
// with at least class capacity; Put recycles it. Contents are not zeroed —
// callers always overwrite before reading, exactly like a real NIC bounce
// buffer.
type BufPool struct {
	classes [poolMaxShift + 1][][]byte
	ctr     PoolCounters
	// lent counts, per class, the buffers a DirPool took from this pool and
	// sent away, less those it kept in return (see DirPool).
	lent [poolMaxShift + 1]int32
}

// classFor maps a byte count to the smallest size class that holds it, or -1
// if unpooled.
func classFor(n int) int {
	if n <= 0 || n > classCap(poolMaxShift) {
		return -1
	}
	s := bits.Len(uint(n - 1)) // ceil(log2 n)
	if s < poolMinShift {
		s = poolMinShift
	}
	if s > poolSlackShift && n <= classCap(s-1) {
		s-- // fits the slack of the class below
	}
	return s
}

// Get returns a []byte of length n, recycled when a buffer of the right
// class is free.
func (p *BufPool) Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		if n <= 0 {
			return nil
		}
		return make([]byte, n)
	}
	p.ctr.Gets++
	if l := p.classes[c]; len(l) > 0 {
		buf := l[len(l)-1]
		l[len(l)-1] = nil
		p.classes[c] = l[:len(l)-1]
		p.ctr.Hits++
		return buf[:n]
	}
	return make([]byte, n, classCap(c))
}

// GetCopy returns a pooled copy of src.
func (p *BufPool) GetCopy(src []byte) []byte {
	buf := p.Get(len(src))
	copy(buf, src)
	return buf
}

// classOf maps a buffer to the size class its capacity is exactly, or -1 when
// it is not a pooled buffer (nil, a subslice, an oversized allocation).
func classOf(buf []byte) int {
	c := cap(buf)
	if c < 1<<poolMinShift {
		return -1
	}
	s := bits.Len(uint(c)) - 1 // floor(log2 c)
	if s > poolMaxShift || c != classCap(s) {
		return -1
	}
	return s
}

// Put recycles a buffer obtained from Get. Putting nil or a buffer whose
// capacity is not an exact pooled class (e.g. a subslice) is a safe no-op, so
// callers on error paths never need to track provenance.
func (p *BufPool) Put(buf []byte) {
	if s := classOf(buf); s >= 0 {
		p.classes[s] = append(p.classes[s], buf[:0])
	}
}

// Counters returns a snapshot of the pool's hit statistics.
func (p *BufPool) Counters() PoolCounters { return p.ctr }

// DirPool holds the buffers that wait on one direction of a channel: filled by
// the direction's sender, emptied by its receiver. Each end also has a pool of
// its own (its "home": a rank's, a device's). A sender takes from the
// direction first and from home otherwise; home remembers, per size class, how
// many buffers it has lent out this way. The end that empties a buffer then
// decides where it waits:
//
//   - an end that has lent buffers out keeps it, replacing one: symmetric
//     traffic (ping-pong, pairwise exchange, all-to-all) lives off the home
//     pools, one warm-up per rank, whichever peers it talks to;
//   - an end that has nothing to replace hands it back to the direction, so a
//     one-way stream — whose receiver would otherwise pile up buffers the
//     sender keeps allocating — reuses the same few.
//
// Requests the direction serves are counted as hits of the sender's home, so
// hit rates need no per-direction bookkeeping. The zero value is ready. A
// DirPool is shared state of the pair: the sender may touch it only from a
// group that owns the receiver's dispatch resource, the receiver from its own
// process.
type DirPool struct{ free [][]byte }

// Get returns a length-n buffer for the direction's sender, whose own pool is
// home.
func (d *DirPool) Get(home *BufPool, n int) []byte {
	c := classFor(n)
	if c < 0 {
		return home.Get(n)
	}
	// Lists are short and nearly always of one class: scan from the end.
	for i := len(d.free) - 1; i >= 0; i-- {
		if buf := d.free[i]; cap(buf) == classCap(c) {
			last := len(d.free) - 1
			d.free[i], d.free[last] = d.free[last], nil
			d.free = d.free[:last]
			home.ctr.Gets++
			home.ctr.Hits++
			return buf[:n]
		}
	}
	home.lent[c]++
	return home.Get(n)
}

// GetCopy is Get followed by a copy of src.
func (d *DirPool) GetCopy(home *BufPool, src []byte) []byte {
	buf := d.Get(home, len(src))
	copy(buf, src)
	return buf
}

// Return retires a buffer that travelled on the direction, from whichever end
// is done with it last; home is that end's own pool.
func (d *DirPool) Return(home *BufPool, buf []byte) {
	c := classOf(buf)
	switch {
	case c < 0:
	case home.lent[c] > 0:
		home.lent[c]--
		home.Put(buf)
	default:
		d.free = append(d.free, buf[:0])
	}
}
