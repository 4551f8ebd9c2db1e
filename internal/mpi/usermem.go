package mpi

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"unsafe"

	"cmpi/internal/core"
)

// Elem is what typed message memory may hold: fixed-size kinds without
// pointers, whose sizes (4, 8 or 16 bytes) divide every pool class's
// capacity (a power of two below 1 KiB, 64 bytes more than one from there
// up; an allocation past the largest class is exactly as long as asked).
type Elem interface {
	~int | ~int32 | ~uint32 | ~int64 | ~uint64 | ~float64 | ~complex128
}

// AllocMemOf is AllocMem for n elements of T: a view of AllocMem's buffer
// as a []T of length n, whose capacity spans the whole buffer. The contents
// are undefined, as AllocMem's are, so write every element before reading
// it (clear it where zeros are meant). AllocMemOf(r, 0) is nil. Hand the
// memory back with FreeMemOf.
func AllocMemOf[T Elem](r *Rank, n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	buf := r.AllocMem(n * size)
	if cap(buf) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(buf))), cap(buf)/size)[:n]
}

// FreeMemOf is FreeMem for memory from AllocMemOf: pass what AllocMemOf
// returned (any length of it, its capacity intact), or nil. A subslice that
// starts further in is not safe, as it is not for FreeMem.
func FreeMemOf[T Elem](r *Rank, s []T) {
	if cap(s) == 0 {
		return
	}
	size := int(unsafe.Sizeof(*new(T)))
	r.FreeMem(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), cap(s)*size))
}

// rands is the process's free list of generators: a math/rand source holds
// 4.9 KB of state, which an application kernel would otherwise build again
// on every rank in every world. It is a plain list under a mutex, not a
// sync.Pool, so that a collection cannot empty it and what a warm world
// allocates does not depend on when the GC ran.
var rands struct {
	mu   sync.Mutex
	free []*rand.Rand
}

// maxFreeRands bounds the list: a kernel rank holds one generator at a
// time, so this serves a 1024-rank world, in about 5 MB.
const maxFreeRands = 1024

// NewRand returns a generator in the state rand.New(rand.NewSource(seed))
// starts in, from the free list when it has one. Hand it back with FreeRand.
func NewRand(seed int64) *rand.Rand {
	rands.mu.Lock()
	var g *rand.Rand
	if n := len(rands.free); n > 0 {
		g = rands.free[n-1]
		rands.free[n-1] = nil
		rands.free = rands.free[:n-1]
	}
	rands.mu.Unlock()
	if g == nil {
		return rand.New(rand.NewSource(seed))
	}
	g.Seed(seed) // resets the source and the Rand's own read position
	return g
}

// FreeRand lists a generator from NewRand for the next NewRand, in this
// world or a later one; past maxFreeRands it is left to the collector. The
// caller must not use it again.
func FreeRand(g *rand.Rand) {
	rands.mu.Lock()
	if len(rands.free) < maxFreeRands {
		rands.free = append(rands.free, g)
	}
	rands.mu.Unlock()
}

// lists is a process-wide free list of arrays of E, for the lists of
// pointers that typed message memory cannot hold: an application's blocks
// for ExchangeV, and request handles. free[c] holds arrays of capacity at
// least 1<<c, so any of them serves a request for up to 1<<c entries. It is
// guarded as rands is and for the same reasons; bytes bounds what it keeps.
type lists[E any] struct {
	mu    sync.Mutex
	free  [bits.UintSize][][]E
	bytes int
}

// maxListBytes bounds what each kind of list keeps. It covers the worlds the
// benchmark and the paper's figures repeat, not the largest: Graph 500 on
// 1024 ranks holds three block lists of 24 KB a rank, 72 MB in all.
const maxListBytes = 8 << 20

var (
	blockLists lists[[]byte]
	reqLists   lists[*Request]
)

// The process-wide free lists above are empty again after core.DropDepot.
func init() {
	core.OnDrop(func() {
		rands.mu.Lock()
		rands.free = nil
		rands.mu.Unlock()
		blockLists.drop()
		reqLists.drop()
	})
}

// drop empties l.
func (l *lists[E]) drop() {
	l.mu.Lock()
	l.free, l.bytes = [bits.UintSize][][]E{}, 0
	l.mu.Unlock()
}

// get returns an array of n zero entries: the newest of the smallest class
// that serves n and has one, so that an array a caller grew past its class
// serves the next caller.
func (l *lists[E]) get(n int) []E {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	l.mu.Lock()
	for k := c; k < len(l.free); k++ {
		if f := l.free[k]; len(f) > 0 {
			a := f[len(f)-1]
			f[len(f)-1] = nil
			l.free[k] = f[:len(f)-1]
			l.bytes -= cap(a) * int(unsafe.Sizeof(a[0]))
			l.mu.Unlock()
			return a[:n]
		}
	}
	l.mu.Unlock()
	return make([]E, n, 1<<c)
}

// put clears a's array and lists it, unless that would pass maxListBytes.
// Under poolStrict it panics on an array it lists already.
func (l *lists[E]) put(a []E) {
	if cap(a) == 0 {
		return
	}
	a = a[:cap(a)]
	clear(a)
	c, size := bits.Len(uint(len(a)))-1, len(a)*int(unsafe.Sizeof(a[0]))
	l.mu.Lock()
	defer l.mu.Unlock()
	if core.PoolStrict() {
		for _, b := range l.free[c] {
			if &b[:1][0] == &a[0] {
				panic(fmt.Sprintf("mpi: a list of %d %T was freed twice", len(a), a[0]))
			}
		}
	}
	if l.bytes+size <= maxListBytes {
		l.free[c] = append(l.free[c], a[:0])
		l.bytes += size
	}
}

// NewBlocks returns n empty blocks, for the per-destination lists an
// application builds for ExchangeV, from the process's free lists. Hand the
// list back with FreeBlocks once its blocks are freed.
func NewBlocks(n int) [][]byte { return blockLists.get(n) }

// FreeBlocks lists b, at any length, for the next NewBlocks, in this world
// or a later one. It keeps no block alive; the caller must not use b again.
func FreeBlocks(b [][]byte) { blockLists.put(b) }

// NewRequests returns an empty list with room for n request handles, from
// the process's free lists. Hand it back with FreeRequests.
func NewRequests(n int) []*Request { return reqLists.get(n)[:0] }

// FreeRequests lists q, at any length, for the next NewRequests. It keeps no
// handle alive; the caller must not use q again.
func FreeRequests(q []*Request) { reqLists.put(q) }
