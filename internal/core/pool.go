package core

import (
	"fmt"
	"math/bits"
	"reflect"
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
// one rank and is the home of every buffer the rank's library takes —
// staging, payload snapshots, and the wire buffers of the HCA the rank opened.
// Every rank has its own free lists, and a request they can serve takes no
// lock. Buffers travelling between two ranks wait on a DirPool of the pair.
//
// What is shared is what lies behind them. A world is single-shot, and a
// sweep builds hundreds, so the pools of a finished world hand their free
// buffers to one process-wide depot (Drain, called where a run ends, with the
// engine stopped), and a pool whose own list is empty asks the depot before
// it asks the allocator. Only those two cold paths — a miss, and the end of a
// world — take the depot's mutex; worlds running side by side (a sweep at
// -j N) meet there and nowhere else. A buffer from
// the depot is as undefined as any other Get, so no simulated result can
// depend on which world last held it.
//
// The depot is bounded (depotCap) and keeps what recent worlds used: every
// drain bumps a counter, each class is stamped with it whenever a buffer
// enters or leaves, and a buffer that would cross the cap makes room by
// evicting the class with the oldest stamp, one buffer at a time. Only
// classes stamped before the current drain go, so a drain never evicts its
// own buffers; with nothing older left, the newcomer is dropped instead.
// This is a pin-down cache's policy (evict the old, neither refuse the new
// nor grow), with a whole class standing for one entry.
//
// The free objects of a finished world — the library's requests, envelopes,
// packets and send ops, the fabric's event records and CQ batches — go to the
// same depot, one list per kind (GiveObjects, TakeObject), under the same
// mutex and on the same two cold paths. Objects of a kind are
// interchangeable, so a full list (objDepotCap) keeps what it has and refuses
// the newcomers.

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
	// poolClasses is the number of classes an owner's pool lists; class c is
	// at index c-poolMinShift.
	poolClasses = poolMaxShift - poolMinShift + 1
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
	// classes holds the free buffers, per pooled class (see poolClasses).
	classes [poolClasses][][]byte
	ctr     PoolCounters
	// lent counts, per pooled class, the buffers a DirPool took from this
	// pool and sent away, less those it kept in return (see DirPool).
	lent [poolClasses]int32
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
	if l := p.classes[c-poolMinShift]; len(l) > 0 {
		buf := l[len(l)-1]
		l[len(l)-1] = nil
		p.classes[c-poolMinShift] = l[:len(l)-1]
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
	if s := classOf(buf) - poolMinShift; s >= 0 {
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
// the direction's sender, emptied by its receiver; DirList does the same for
// objects. Each end also has a pool of its own (its "home": the pool or list
// of the rank at that end). A sender takes from the direction first and from
// home otherwise; home remembers (per size class, for bytes) how many it has
// lent out this way. The end that is done with one then decides where it
// waits:
//
//   - an end that has lent some out keeps it, replacing one: symmetric
//     traffic (ping-pong, pairwise exchange, all-to-all) lives off the home
//     pools, one warm-up per rank, whichever peers it talks to;
//   - an end that has nothing to replace hands it back to the direction, so a
//     one-way stream — whose receiver would otherwise pile up what the sender
//     keeps allocating — reuses the same few.
//
// Requests the direction serves are counted as hits of the sender's home, so
// hit rates need no per-direction bookkeeping. The zero value is ready. A
// direction is shared state of the pair, touched by its sender and its
// receiver.
type DirPool struct{ free [][]byte }

// Get returns a length-n buffer for the direction's sender, whose own pool is
// home. A nil direction is an empty one.
func (d *DirPool) Get(home *BufPool, n int) []byte {
	c := classFor(n)
	if c < 0 {
		return home.Get(n)
	}
	if d == nil {
		home.lent[c-poolMinShift]++
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
	home.lent[c-poolMinShift]++
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
	if home.Reclaim(buf) {
		d.Hold(buf)
	}
}

// Reclaim is home's half of DirPool.Return: p keeps buf when it has lent out
// one of its class. It reports whether buf has to wait on the direction
// instead (Hold); a buffer of no pooled class is dropped either way.
func (p *BufPool) Reclaim(buf []byte) (waits bool) {
	c := classOf(buf) - poolMinShift
	switch {
	case c < 0:
		return false
	case p.lent[c] > 0:
		p.lent[c]--
		p.Put(buf)
		return false
	}
	return true
}

// Hold lists a buffer that Reclaim left to the direction.
func (d *DirPool) Hold(buf []byte) { d.free = append(d.free, buf[:0]) }

// FreeList is a typed free list of *T, the object counterpart of BufPool: Get
// returns a zeroed object — its own, else one a finished world left in the
// depot, else a new one — and Put zeroes before listing, so stale pointers
// never pin garbage or leak across reuses. The zero value is ready; like a
// BufPool it has one owner and no lock.
type FreeList[T any] struct {
	free []*T
	// hits, depot and misses count what Get served from free, from the depot
	// and from the allocator (see Counters).
	hits, depot, misses uint64
	// lent counts the objects a DirList took from this list and sent away,
	// less those it kept in return (see DirPool).
	lent int
}

// Get returns a zeroed object.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.hits++
		return x
	}
	if x, ok := TakeObject[*T](); ok {
		l.depot++
		return x
	}
	l.misses++
	return new(T)
}

// Put recycles x, zeroing it first.
func (l *FreeList[T]) Put(x *T) {
	*x = *new(T)
	l.free = append(l.free, x)
}

// Drain hands the free objects to the depot. The counters and lent stay.
func (l *FreeList[T]) Drain(dr *Drain) {
	GiveObjects(dr, l.free)
	l.free = nil
}

// Counters reports the list's requests: Gets = Hits + Depot + the misses.
func (l *FreeList[T]) Counters() PoolCounters {
	return PoolCounters{Gets: l.hits + l.depot + l.misses, Hits: l.hits, Depot: l.depot}
}

// DirList holds the objects that wait on one direction of a channel, by the
// rule DirPool states. The zero value is ready.
type DirList[T any] struct{ free []*T }

// Get returns a zeroed object for the direction's sender, whose own list is
// home.
func (d *DirList[T]) Get(home *FreeList[T]) *T {
	if n := len(d.free); n > 0 {
		x := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		home.hits++
		return x
	}
	home.lent++
	return home.Get()
}

// Retire recycles an object that travelled on the direction, from whichever
// end is done with it last; home is that end's own list.
func (d *DirList[T]) Retire(home *FreeList[T], x *T) {
	if home.lent > 0 {
		home.lent--
		home.Put(x)
		return
	}
	*x = *new(T)
	d.free = append(d.free, x)
}

// Drain hands the objects waiting on the direction to the depot.
func (d *DirList[T]) Drain(dr *Drain) {
	GiveObjects(dr, d.free)
	d.free = nil
}

// depotCap bounds the bytes the depot holds between worlds. It must cover the
// working set of the worlds a sweep or a benchmark repeats, or the least
// recently used class is always the next one needed and eviction thrashes.
// The largest are 64 ranks of 16 KiB Alltoall (bench's coll-64), which hold
// 147–149 MB after each world, 134 MB of it the 1 MiB class of the 64 send
// and 64 receive buffers, and 1024 ranks at full fidelity, about 105 MB.
// What is evicted or refused is dropped for the garbage collector.
const depotCap = 256 << 20

// stackChunk is the number of entries in one chunk of a depot stack.
const stackChunk = 256

// stack is one of the depot's lists: a LIFO kept in fixed chunks, so that
// growing it copies nothing and leaves no outgrown array behind. A drain hands
// the depot a whole world's free buffers and objects, one rank at a time; a
// list that doubled would allocate about twice what it ends up holding. Chunks
// stay once made.
type stack[T any] struct {
	chunks []*[stackChunk]T
	n      int
}

func (s *stack[T]) len() int { return s.n }

// at is entry i, oldest first.
func (s *stack[T]) at(i int) T { return s.chunks[i/stackChunk][i%stackChunk] }

func (s *stack[T]) push(x T) {
	if s.n == len(s.chunks)*stackChunk {
		s.chunks = append(s.chunks, new([stackChunk]T))
	}
	s.chunks[s.n/stackChunk][s.n%stackChunk] = x
	s.n++
}

// pop removes the newest entry, which must exist, and returns it.
func (s *stack[T]) pop() T {
	s.n--
	c := s.chunks[s.n/stackChunk]
	x := c[s.n%stackChunk]
	c[s.n%stackChunk] = *new(T)
	return x
}

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
	classes [depotMaxShift + 1]stack[[]byte]
	// drains counts the drains started; stamp is, per class, its value at the
	// class's last take, give or putLarge.
	drains uint64
	stamp  [depotMaxShift + 1]uint64
	// poisoned is the set of held buffers a strict Drain brought in, by the
	// address of their first byte; nil until there is one.
	poisoned map[*byte]struct{}
	// objs holds the free objects, one *stack[T] per kind T (see
	// GiveObjects).
	objs map[reflect.Type]any
}

var theDepot = depot{limit: depotCap}

// poolStrict is a test hook: when set, every buffer a finished world hands to
// the depot is poisoned and checked not to be there already (a double Put),
// and the next world to take one checks the poison is intact (give, take);
// an object taken from the depot must still be zero (TakeObject). Worlds read
// it too (mpi: the conservation law, Rank.Release). Guarded by
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
		for c := range theDepot.classes {
			l := &theDepot.classes[c]
			for i := range l.len() {
				theDepot.poison(l.at(i)[:classCap(c)])
			}
		}
	}
	was, poolStrict = poolStrict, on
	return was
}

// DropDepot leaves everything the depot holds, buffers and objects, to the
// garbage collector: the state of a process that has run no world yet. Only
// for the benchmarks and tests that compare a cold start with a warm one or
// must start from one depot state (they live in other packages, hence the
// export). What the depot holds is part of a process's footprint: nothing
// that bounds heap may call this first.
func DropDepot() { theDepot.drop() }

// drop empties d.
func (d *depot) drop() {
	d.mu.Lock()
	d.classes = [depotMaxShift + 1]stack[[]byte]{}
	d.bytes, d.poisoned, d.objs = 0, nil, nil
	d.mu.Unlock()
}

// take removes a buffer of class c, or returns nil when there is none.
func (d *depot) take(c int) []byte {
	d.mu.Lock()
	d.stamp[c] = d.drains
	l := &d.classes[c]
	if l.len() == 0 {
		d.mu.Unlock()
		return nil
	}
	buf := l.pop()[:classCap(c)]
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
// else, and what does not fit under the limit once older classes are
// evicted, is dropped. There are a handful of these per process, so every put
// looks for a double one.
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
	l := &d.classes[c]
	for i := range l.len() {
		if &l.at(i)[:1][0] == &buf[0] {
			panic(fmt.Sprintf("core: a %d-byte buffer was freed twice", cap(buf)))
		}
	}
	d.stamp[c] = d.drains
	if _, ok := d.makeRoom(cap(buf)); ok {
		l.push(buf[:0])
		d.bytes += cap(buf)
	}
}

// makeRoom evicts buffers, one at a time from the class with the oldest
// stamp, until n more bytes fit under the limit. It never evicts a class
// stamped at the current drain; when only those are left it reports that n
// does not fit. evicted is the bytes it dropped either way. d.mu is held.
func (d *depot) makeRoom(n int) (evicted int, ok bool) {
	for d.bytes+n > d.limit {
		// Ties go to the largest class: the fewest buffers make the room.
		lru := -1
		for c := depotMaxShift; c >= poolMinShift; c-- {
			if d.classes[c].len() > 0 && d.stamp[c] < d.drains && (lru < 0 || d.stamp[c] < d.stamp[lru]) {
				lru = c
			}
		}
		if lru < 0 {
			return evicted, false
		}
		buf := d.classes[lru].pop()[:1]
		d.bytes -= cap(buf)
		evicted += cap(buf)
		delete(d.poisoned, &buf[0])
	}
	return evicted, true
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

// startDrain begins a drain: what is stamped before it may now be evicted.
func (d *depot) startDrain() {
	d.mu.Lock()
	d.drains++
	d.mu.Unlock()
}

// give adds the pooled buffers of list, in order, evicting older classes to
// make room; what still does not fit, and anything that is no pool buffer,
// is dropped. It returns the bytes of pool buffers evicted or dropped. Under
// poolStrict give poisons what it keeps, and panics on a buffer the depot
// already holds.
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
		d.stamp[c] = d.drains
		evicted, ok := d.makeRoom(cap(buf))
		refused += evicted
		if !ok {
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
		d.classes[c].push(buf[:0])
		d.bytes += cap(buf)
	}
	return refused
}

// Drain empties the pools of a finished world into the depot and, on the way,
// adds up the two sides of DirPool's conservation law. The caller names every
// home pool once and every direction at least once, from one goroutine, when
// nothing of the world runs any more.
type Drain struct {
	// Refused is the bytes of free buffers that depotCap cost — older ones the
	// depot evicted to take these, and those it was still too full to take —
	// and of the objects objDepotCap refused. A repeat of a world like this
	// one allocates them again.
	Refused       int
	started       bool
	lent, waiting [poolMaxShift + 1]int
}

// give hands list to the depot, starting the drain on the first call.
func (dr *Drain) give(list [][]byte) {
	if !dr.started {
		dr.started = true
		theDepot.startDrain()
	}
	dr.Refused += theDepot.give(list)
}

// Home takes the free buffers of an owner's pool. Its counters stay.
func (dr *Drain) Home(p *BufPool) {
	for i := range p.classes {
		dr.give(p.classes[i])
		p.classes[i] = nil
		dr.lent[i+poolMinShift] += int(p.lent[i])
	}
}

// Dir takes the buffers that wait on a direction.
func (dr *Drain) Dir(d *DirPool) {
	for _, buf := range d.free {
		dr.waiting[classOf(buf)]++
	}
	dr.give(d.free)
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

// objDepotCap bounds the objects of each kind the depot holds between worlds.
// It covers the largest worlds a process repeats: 1024 ranks at full fidelity
// leave 4448 fabric event records, their most numerous kind, and 4096 ranks
// about four times as many.
const objDepotCap = 1 << 15

// GiveObjects hands list, in order, to the depot's list of kind T, for the
// free lists of later worlds: pointers to zero values, or slices emptied and
// zeroed up to their capacity. What would take the kind past objDepotCap is
// refused and its bytes are added to dr.Refused. Like Home and Dir, only for
// a world whose engine has stopped.
func GiveObjects[T any](dr *Drain, list []T) {
	if len(list) == 0 {
		return
	}
	d := &theDepot
	d.mu.Lock()
	defer d.mu.Unlock()
	k := reflect.TypeFor[T]()
	l, _ := d.objs[k].(*stack[T])
	if l == nil {
		if d.objs == nil {
			d.objs = make(map[reflect.Type]any)
		}
		l = new(stack[T])
		d.objs[k] = l
	}
	n := min(len(list), objDepotCap-l.len())
	for _, x := range list[:n] {
		l.push(x)
	}
	for _, x := range list[n:] {
		dr.Refused += objBytes(x)
	}
}

// TakeObject returns an object of kind T that a finished world gave the
// depot, and false when it holds none. Under poolStrict it panics if the
// object is no longer the zero value GiveObjects took: something kept an
// alias past the end of its world and wrote through it.
func TakeObject[T any]() (x T, ok bool) {
	d := &theDepot
	d.mu.Lock()
	l, _ := d.objs[reflect.TypeFor[T]()].(*stack[T])
	if l == nil || l.len() == 0 {
		d.mu.Unlock()
		return x, false
	}
	x = l.pop()
	strict := poolStrict
	d.mu.Unlock()
	if strict && !zeroed(x) {
		panic(fmt.Sprintf("core: a %T from the depot was written after its world ended", x))
	}
	return x, true
}

// zeroed reports whether a depot object is as GiveObjects took it: what a
// pointer points to is zero, and so is a slice up to its capacity.
func zeroed[T any](x T) bool {
	v := reflect.ValueOf(x)
	if v.Kind() != reflect.Slice {
		return v.Elem().IsZero()
	}
	v = v.Slice(0, v.Cap())
	for i := range v.Len() {
		if !v.Index(i).IsZero() {
			return false
		}
	}
	return true
}

// objBytes is the memory behind a depot object: what a pointer points to, or
// a slice's capacity.
func objBytes[T any](x T) int {
	v := reflect.ValueOf(x)
	if v.Kind() != reflect.Slice {
		return int(v.Type().Elem().Size())
	}
	return v.Cap() * int(v.Type().Elem().Size())
}
