package mpi

import (
	"math/rand"
	"sync"
	"unsafe"
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
