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
// -j N) meet there and nowhere else. A buffer from the depot is as undefined
// as any other Get, so no simulated result can depend on which world last
// held it.
//
// The free objects of a finished world — the library's requests, envelopes,
// packets and send ops, the fabric's event records and MR handles — go to the
// same depot, one list per kind (GiveObjects, TakeObject), under the same
// mutex and on the same two cold paths. The arrays that listed them stay
// with their owners, emptied and cleared. The depot is bounded and refuses
// what would cross a bound, left to the garbage collector: a buffer past
// depotCap bytes, an object past objDepotCap of its kind.
//
// A world that ended cleanly hands on its connection state too, after its
// free lists: the library's pairs, shared-memory rings, peer records, send
// queues, and each rank's peer index and ring list, then the fabric's
// devices (and the list of them), CQs, QPs and QP extensions, the rank
// objects themselves with their detectors, programs and steppers, and last
// its engine's arrays (sim.Arrays). The next world's constructors take them
// where they would have allocated, when the state is built, never per
// message. An owner keeps the arrays of its queues, home lists and direction
// lists, emptied and cleared (Cleared, Kept), so a rank, a ring, a CQ or a
// QP comes back with room for what it held. A world that failed leaves its
// state, those arrays included, to the garbage collector: an operation that
// never finished may still name it. None of this is counted: a depot object
// is as good as a new one, so no simulated result, and no pool counter, can
// tell them apart.
//
// A constructor reaches its kind's list through a Kind, a handle made once
// per kind in a package variable, so a take looks nothing up; a drain holds
// the depot's lock for all its gives (Drain.Lock), so a world that hands on
// tens of thousands of objects locks it once. The generic TakeObject and
// GiveObjects, for the free lists that have no handle at hand, find the
// kind's list by its type.

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
	l := p.classes[c-poolMinShift]
	if len(l) > 0 {
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

// Drain hands the free objects to the depot. The list keeps its array,
// cleared, for its owner's next world (Kept); the counters and lent stay.
func (l *FreeList[T]) Drain(dr *Drain) {
	GiveObjects(dr, l.free)
	l.free = Cleared(l.free)
}

// Kept is what of a drained list goes on with an owner that a clean world
// hands on: its array, and no counter.
func (l *FreeList[T]) Kept() FreeList[T] { return FreeList[T]{free: l.free} }

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

// Drain hands the objects waiting on the direction to the depot. The
// direction keeps its array, cleared, for whoever takes its owner next.
func (d *DirList[T]) Drain(dr *Drain) {
	GiveObjects(dr, d.free)
	d.free = Cleared(d.free)
}

// Cleared returns list's array at length 0 with every slot up to its
// capacity cleared, so that it keeps nothing alive: the form in which an
// array goes to the depot, alone or inside the object that owns it.
func Cleared[E any](list []E) []E {
	clear(list[:cap(list)])
	return list[:0]
}

// depotCap bounds the bytes the depot holds between worlds. It must cover the
// working set of the worlds a sweep or a benchmark repeats, or a repeat
// allocates what the depot refused. The largest are 64 ranks of 16 KiB
// Alltoall (bench's coll-64), which hold 147–149 MB after each world, 134 MB
// of it the 1 MiB class of the 64 send and 64 receive buffers, and 1024 ranks
// at full fidelity, about 105 MB. What is refused is dropped for the garbage
// collector.
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
	// poisoned is the set of held buffers a strict Drain brought in, by the
	// address of their first byte; nil until there is one.
	poisoned map[*byte]struct{}
	// objs holds the free objects, one *stack[T] per kind T (see Kind). A
	// list, once made, stays for the life of the process: a Kind holds it.
	objs map[reflect.Type]objList
}

// objList is what the depot needs of a kind's list without its type.
type objList interface{ drop() }

// drop empties s, chunks and all.
func (s *stack[T]) drop() { *s = stack[T]{} }

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

// DropDepot leaves everything the depot holds, buffers and objects, and
// what the free lists registered with OnDrop hold, to the garbage collector:
// the state of a process that has run no world yet. Only for the benchmarks
// and tests that compare a cold start with a warm one or must start from one
// depot state (they live in other packages, hence the export). What the
// depot holds is part of a process's footprint: nothing that bounds heap may
// call this first.
func DropDepot() {
	theDepot.drop()
	for _, drop := range dropHooks {
		drop()
	}
}

// dropHooks empty the process-wide free lists that packages keep beside the
// depot, for DropDepot.
var dropHooks []func()

// OnDrop has every DropDepot call drop, which empties a package's own
// process-wide free lists. Call it from the package's init.
func OnDrop(drop func()) { dropHooks = append(dropHooks, drop) }

// drop empties d.
func (d *depot) drop() {
	d.mu.Lock()
	d.classes = [depotMaxShift + 1]stack[[]byte]{}
	d.bytes, d.poisoned = 0, nil
	for _, l := range d.objs {
		l.drop()
	}
	d.mu.Unlock()
}

// take removes a buffer of class c, or returns nil when there is none.
func (d *depot) take(c int) []byte {
	d.mu.Lock()
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
	l := &d.classes[c]
	for i := range l.len() {
		if &l.at(i)[:1][0] == &buf[0] {
			panic(fmt.Sprintf("core: a %d-byte buffer was freed twice", cap(buf)))
		}
	}
	if d.bytes+cap(buf) <= d.limit {
		l.push(buf[:0])
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

// give adds the pooled buffers of list, in order; what would take the depot
// past its limit, and anything that is no pool buffer, is dropped. It returns
// the bytes of pool buffers refused. Under poolStrict give poisons what it
// keeps, and panics on a buffer the depot already holds. d.mu is held.
func (d *depot) give(list [][]byte) (refused int) {
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
	// Refused is the bytes of the free buffers depotCap refused and of the
	// objects objDepotCap refused. A repeat of a world like this one
	// allocates them again.
	Refused int
	// locked says that the drain holds the depot's lock (Lock).
	locked        bool
	lent, waiting [poolMaxShift + 1]int
}

// Lock holds the depot's lock for every give through dr that follows, until
// Unlock: a world that hands on tens of thousands of objects takes the lock
// once rather than once an object. In between, the caller may give through
// dr only (Home, Dir, GiveObjects, Kind.Give, the lists' Drain) and must take
// nothing from the depot: the lock is not reentrant.
func (dr *Drain) Lock() {
	theDepot.mu.Lock()
	dr.locked = true
}

// Unlock lets go of the lock Lock took.
func (dr *Drain) Unlock() {
	dr.locked = false
	theDepot.mu.Unlock()
}

// acquire takes the depot's lock for one give unless dr holds it already
// (Lock), and reports whether it did, for release.
func (dr *Drain) acquire() (took bool) {
	if dr.locked {
		return false
	}
	theDepot.mu.Lock()
	return true
}

// release ends one give: it lets go of the lock if acquire took it.
func (dr *Drain) release(took bool) {
	if took {
		theDepot.mu.Unlock()
	}
}

// give hands list to the depot.
func (dr *Drain) give(list [][]byte) {
	if len(list) == 0 {
		return
	}
	defer dr.release(dr.acquire()) // give panics on a double Put
	dr.Refused += theDepot.give(list)
}

// Home takes the free buffers of an owner's pool. The pool keeps the arrays
// that listed them, cleared, for its owner's next world (BufPool.Kept); its
// counters stay.
func (dr *Drain) Home(p *BufPool) {
	for i := range p.classes {
		dr.give(p.classes[i])
		p.classes[i] = Cleared(p.classes[i])
		dr.lent[i+poolMinShift] += int(p.lent[i])
	}
}

// Kept is what of a drained pool goes on with an owner that a clean world
// hands on: the arrays of its classes, and no counter.
func (p *BufPool) Kept() BufPool { return BufPool{classes: p.classes} }

// Dir takes the buffers that wait on a direction. The direction keeps its
// array, cleared, as DirList.Drain does.
func (dr *Drain) Dir(d *DirPool) {
	for _, buf := range d.free {
		dr.waiting[classOf(buf)]++
	}
	dr.give(d.free)
	d.free = Cleared(d.free)
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

// Kind is a handle on the depot's list of one kind of object T: pointers to
// objects a world builds once and keeps (its connection state, its ranks), or
// arrays. Make it once, in a package variable (NewKind), and a take or a
// give finds its list without looking T up.
type Kind[T any] struct{ l *stack[T] }

// NewKind returns the handle on kind T's list, making the list on first use.
func NewKind[T any]() Kind[T] {
	d := &theDepot
	d.mu.Lock()
	defer d.mu.Unlock()
	return Kind[T]{listOf[T](d)}
}

// listOf returns kind T's list, making it on first use; d.mu is held.
func listOf[T any](d *depot) *stack[T] {
	k := reflect.TypeFor[T]()
	if l, ok := d.objs[k]; ok {
		return l.(*stack[T])
	}
	if d.objs == nil {
		d.objs = make(map[reflect.Type]objList)
	}
	l := new(stack[T])
	d.objs[k] = l
	return l
}

// Take returns an object of kind T that a finished world gave the depot, and
// false when it holds none. Under poolStrict it panics if the object is no
// longer as it was given: something kept an alias past the end of its world
// and wrote through it.
func (k Kind[T]) Take() (x T, ok bool) {
	d := &theDepot
	d.mu.Lock()
	return takeFrom(d, k.l)
}

// takeFrom is Take from l, which may be nil; it lets go of d.mu, which is
// held.
func takeFrom[T any](d *depot, l *stack[T]) (x T, ok bool) {
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

// Give hands x to kind T's list, for the constructors of later worlds: a
// pointer to a zero value, or to one that is zero but for arrays it keeps
// Cleared, or a Cleared slice. What would take the kind past objDepotCap is
// refused and its bytes are added to dr.Refused. Like Home and Dir, only for
// a world whose engine has stopped; under Drain.Lock it takes no lock.
func (k Kind[T]) Give(dr *Drain, x T) {
	defer dr.release(dr.acquire())
	k.put(dr, x)
}

// put lists x, or refuses it; d.mu is held.
func (k Kind[T]) put(dr *Drain, x T) {
	if k.l.len() >= objDepotCap {
		dr.Refused += objBytes(x)
		return
	}
	k.l.push(x)
}

// GiveObjects is Kind.Give for each object of list, in order, for callers
// that hold no handle on kind T (a FreeList of any T).
func GiveObjects[T any](dr *Drain, list []T) {
	if len(list) == 0 {
		return
	}
	defer dr.release(dr.acquire())
	k := Kind[T]{listOf[T](&theDepot)}
	for _, x := range list {
		k.put(dr, x)
	}
}

// TakeOrNew returns a *T that a finished world gave the depot, or a new one:
// the constructors' way to the depot, for objects a world builds once and
// keeps, where a FreeList serves those it recycles.
func TakeOrNew[T any](k Kind[*T]) *T {
	if x, ok := k.Take(); ok {
		return x
	}
	return new(T)
}

// TakeObject is Kind.Take for callers that hold no handle on kind T (a
// FreeList of any T): it looks the kind's list up by type.
func TakeObject[T any]() (x T, ok bool) {
	d := &theDepot
	d.mu.Lock()
	l, _ := d.objs[reflect.TypeFor[T]()].(*stack[T])
	return takeFrom(d, l)
}

// zeroed reports whether a depot object is as GiveObjects took it: what a
// pointer points to is zero but for the cleared arrays it keeps, and a slice
// is cleared.
func zeroed[T any](x T) bool {
	v := reflect.ValueOf(x)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	return cleared(v)
}

// cleared reports whether v is zero but for the arrays it keeps cleared: a
// slice whose every slot up to its capacity is cleared, and which is empty
// (Cleared) or, when it lists arrays itself (an engine's arena slabs), of any
// length; or a pointer to an array (an event slab's first segment and its
// table of the others). Any other pointer must be nil.
func cleared(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() != 0 && v.Type().Elem().Kind() != reflect.Slice {
			return false
		}
		v = v.Slice(0, v.Cap())
		for i := range v.Len() {
			if !cleared(v.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if v.IsNil() || v.Type().Elem().Kind() != reflect.Array {
			return v.IsNil()
		}
		return cleared(v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			if !cleared(v.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := range v.Len() {
			if !cleared(v.Index(i)) {
				return false
			}
		}
		return true
	}
	return v.IsZero()
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
