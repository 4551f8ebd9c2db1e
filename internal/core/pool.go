package core

import (
	"fmt"
	"math/bits"
	"sync"
)

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
// reachable from two groups at once: every owner has its own free lists, and
// a request they can serve takes no lock.
//
// What is shared is what lies behind them. A world is single-shot, and a
// sweep builds hundreds, so the pools of a finished world hand their free
// buffers to one process-wide depot (Drain, called where a run ends, with the
// engine stopped), and a pool whose own list is empty asks the depot before
// it asks the allocator. Only those two cold paths — a miss, and the end of a
// world — take the depot's mutex; worlds running side by side (a sweep at
// -j N, epoch groups at -sim-j N) meet there and nowhere else. A buffer from
// the depot is as undefined as any other Get, so no simulated result can
// depend on which world last held it.

const (
	// poolMinShift is the smallest pooled class (32 B): below that the
	// allocation is cheaper than the bookkeeping.
	poolMinShift = 5
	// poolMaxShift is the largest class an owner's pool lists (4 MiB),
	// comfortably above the biggest OSU sweep message.
	poolMaxShift = 22
	// depotMaxShift is the largest class there is (16 MiB: the osu_put_bw
	// window). The classes above poolMaxShift exist in the depot only — a
	// world asks for such a buffer once, so Get and Free go there directly
	// and no owner's pool grows for them; larger requests fall through to
	// the allocator.
	depotMaxShift = 24
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
	// Hits is the subset served by recycling one of the owner's own buffers.
	Hits uint64
	// Depot is the subset served by the process-wide depot: buffers a finished
	// world left behind. Gets - Hits - Depot were allocated.
	Depot uint64
}

// Add accumulates o into c.
func (c *PoolCounters) Add(o PoolCounters) {
	c.Gets += o.Gets
	c.Hits += o.Hits
	c.Depot += o.Depot
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
		return theDepot.getLarge(n)
	}
	p.ctr.Gets++
	if l := p.classes[c]; len(l) > 0 {
		buf := l[len(l)-1]
		l[len(l)-1] = nil
		p.classes[c] = l[:len(l)-1]
		p.ctr.Hits++
		return buf[:n]
	}
	if buf := theDepot.take(c); buf != nil {
		p.ctr.Depot++
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

// Free is Put for a buffer that may be of any class, the depot's large ones
// included. Put stays small enough to inline into the per-message paths,
// which never hold such a buffer.
func (p *BufPool) Free(buf []byte) {
	if cap(buf) > classCap(poolMaxShift) {
		theDepot.putLarge(buf)
		return
	}
	p.Put(buf)
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

// depotCap bounds the bytes the depot holds between worlds. The largest world
// a sweep or a benchmark repeats — 1024 ranks at full fidelity, 33 KiB
// vectors — leaves about 105 MB of free buffers behind, so 128 MiB keeps all
// of it; the 4096-rank world of repro -fidelity-smoke, run against a depot
// that full, stays near 122 MiB of HeapSys against its 512 MiB bound, and the
// one of the mpi tests (TestFullFidelity4096, after some four hundred worlds)
// reads 150-170 MiB against 256, 111 MiB of it without a depot. What does
// not fit is dropped for the garbage collector, as everything was before.
const depotCap = 128 << 20

// poison fills the buffers that enter the depot from a strict Drain: a reader
// that kept an alias sees it at once, and take checks that no writer did.
const poison = 0xDB

// depot holds the free buffers of finished worlds, by size class, for the
// pools of later ones. Unlike the sync package's pool, what it holds changes
// only when a world ends or a pool misses, never when the collector runs, so
// the same sequence of worlds allocates the same bytes every time.
type depot struct {
	mu      sync.Mutex
	limit   int
	bytes   int // capacity held, at most limit
	classes [depotMaxShift + 1][][]byte
	// poisoned is the set of held buffers a strict Drain brought in, by the
	// address of their first byte; nil until there is one.
	poisoned map[*byte]struct{}
}

var theDepot = depot{limit: depotCap}

// poolStrict is a test hook: when set, every buffer a finished world hands to
// the depot is poisoned and checked not to be there already (a double Put),
// and the next world to take one checks the poison is intact (give, take).
// Worlds read it too (mpi: the conservation law, Rank.Release). Guarded by
// theDepot.mu; written only between worlds.
var poolStrict bool

// PoolStrict reports the poolStrict test hook.
func PoolStrict() bool { return poolStrict }

// SetPoolStrict sets the poolStrict test hook and returns its previous value.
// Turning it on also poisons everything the depot already holds, so the next
// world takes poison rather than the payloads of the last one.
func SetPoolStrict(on bool) (was bool) {
	theDepot.mu.Lock()
	defer theDepot.mu.Unlock()
	if on {
		for c, l := range theDepot.classes {
			for _, buf := range l {
				theDepot.poison(buf[:classCap(c)])
			}
		}
	}
	was, poolStrict = poolStrict, on
	return was
}

// DropDepot leaves everything the depot holds to the garbage collector: the
// state of a process that has run no world yet. Only for the benchmarks and
// tests that compare a cold start with a warm one (they live in other
// packages, hence the export). What the depot holds is part of a process's
// footprint: nothing that bounds heap may call this first.
func DropDepot() {
	theDepot.mu.Lock()
	theDepot.classes = [depotMaxShift + 1][][]byte{}
	theDepot.bytes, theDepot.poisoned = 0, nil
	theDepot.mu.Unlock()
}

// take removes a buffer of class c, or returns nil when there is none.
func (d *depot) take(c int) []byte {
	d.mu.Lock()
	l := d.classes[c]
	if len(l) == 0 {
		d.mu.Unlock()
		return nil
	}
	buf := l[len(l)-1][:classCap(c)]
	l[len(l)-1] = nil
	d.classes[c] = l[:len(l)-1]
	d.bytes -= len(buf)
	_, strict := d.poisoned[&buf[0]]
	delete(d.poisoned, &buf[0])
	d.mu.Unlock()
	if strict {
		for i, b := range buf {
			if b != poison {
				panic(fmt.Sprintf("core: byte %d of a %d-byte depot buffer was written after its world ended", i, len(buf)))
			}
		}
	}
	return buf
}

// getLarge serves a request above the per-owner classes: from the depot's
// large classes up to depotMaxShift, from the allocator beyond them.
func (d *depot) getLarge(n int) []byte {
	for c := poolMaxShift + 1; c <= depotMaxShift; c++ {
		if n <= classCap(c) {
			if buf := d.take(c); buf != nil {
				return buf[:n]
			}
			return make([]byte, n, classCap(c))
		}
	}
	return make([]byte, n)
}

// putLarge retires a buffer of a large class, while its world may still be
// running: whoever takes it next, in this world or another, owns it. Anything
// else, and what does not fit under the limit, is dropped. There are a
// handful of these per process, so every put looks for a double one.
func (d *depot) putLarge(buf []byte) {
	c := poolMaxShift + 1
	for c <= depotMaxShift && cap(buf) != classCap(c) {
		c++
	}
	if c > depotMaxShift {
		return
	}
	buf = buf[:1]
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, held := range d.classes[c] {
		if &held[:1][0] == &buf[0] {
			panic(fmt.Sprintf("core: a %d-byte buffer was freed twice", cap(buf)))
		}
	}
	if d.bytes+cap(buf) <= d.limit {
		d.classes[c] = append(d.classes[c], buf[:0])
		d.bytes += cap(buf)
	}
}

// poison fills a held buffer and marks it for take's check; d.mu is held.
func (d *depot) poison(buf []byte) {
	if d.poisoned == nil {
		d.poisoned = make(map[*byte]struct{})
	}
	d.poisoned[&buf[0]] = struct{}{}
	for i := range buf {
		buf[i] = poison
	}
}

// give adds the pooled buffers of list, in order, until the depot is full;
// the rest, and anything that is no pool buffer, is dropped. It returns the
// bytes of pool buffers that did not fit. Under poolStrict give poisons what
// it keeps, and panics on a buffer the depot already holds.
func (d *depot) give(list [][]byte) (refused int) {
	if len(list) == 0 {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, buf := range list {
		c := classOf(buf)
		if c < 0 {
			continue
		}
		if d.bytes+cap(buf) > d.limit {
			refused += cap(buf)
			continue
		}
		if poolStrict {
			buf = buf[:cap(buf)]
			if _, dup := d.poisoned[&buf[0]]; dup {
				panic(fmt.Sprintf("core: a %d-byte buffer reached the depot twice: it was Put or Returned twice", cap(buf)))
			}
			d.poison(buf)
		}
		d.classes[c] = append(d.classes[c], buf[:0])
		d.bytes += cap(buf)
	}
	return refused
}

// Drain empties the pools of a finished world into the depot and, on the way,
// adds up the two sides of DirPool's conservation law. The caller names every
// home pool once and every direction at least once, from one goroutine, when
// nothing of the world runs any more.
type Drain struct {
	// Refused is the bytes of free buffers the depot was too full to take:
	// what the next world like this one allocates again because of depotCap.
	Refused       int
	lent, waiting [poolMaxShift + 1]int
}

// Home takes the free buffers of an owner's pool. Its counters stay.
func (dr *Drain) Home(p *BufPool) {
	for c := range p.classes {
		dr.Refused += theDepot.give(p.classes[c])
		p.classes[c] = nil
		dr.lent[c] += int(p.lent[c])
	}
}

// Dir takes the buffers that wait on a direction.
func (dr *Drain) Dir(d *DirPool) {
	for _, buf := range d.free {
		dr.waiting[classOf(buf)]++
	}
	dr.Refused += theDepot.give(d.free)
	d.free = nil
}

// Unbalanced reports a size class in which the drained homes have lent out a
// different number of buffers than wait on the drained directions. When no
// buffer is in flight the two are equal (every DirPool.Get that reaches home
// is matched by a Return that finds nothing to replace), so after a world
// that ended cleanly a difference is a buffer returned twice or not at all.
func (dr *Drain) Unbalanced() error {
	for c := range dr.lent {
		if dr.lent[c] != dr.waiting[c] {
			return fmt.Errorf("core: %d-byte class: homes have lent %d buffers, %d wait on directions",
				classCap(c), dr.lent[c], dr.waiting[c])
		}
	}
	return nil
}
