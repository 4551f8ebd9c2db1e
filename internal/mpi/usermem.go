package mpi

import (
	"math/rand"
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

// NewRand returns a generator in the state rand.New(rand.NewSource(seed))
// starts in, from the depot when it holds one (core.NewRand). Hand it back
// with FreeRand.
func NewRand(seed int64) *rand.Rand { return core.NewRand(seed) }

// FreeRand hands a generator from NewRand to the depot for the next NewRand,
// in this world or a later one. The caller must not use it again.
func FreeRand(g *rand.Rand) { core.FreeRand(g) }

// NewBlocks returns n empty blocks, for the per-destination lists an
// application builds for ExchangeV, from the depot's arrays
// (core.TakeArray). Hand the list back with FreeBlocks once its blocks are
// freed.
func NewBlocks(n int) [][]byte { return core.TakeArray[[]byte](n) }

// FreeBlocks hands b, at any length, to the depot for the next NewBlocks, in
// this world or a later one. It keeps no block alive; the caller must not use
// b again.
func FreeBlocks(b [][]byte) { core.GiveArray(nil, b) }

// NewRequests returns an empty list with room for n request handles, from
// the depot's arrays. Hand it back with FreeRequests.
func NewRequests(n int) []*Request { return core.TakeArray[*Request](n)[:0] }

// FreeRequests hands q, at any length, to the depot for the next
// NewRequests. It keeps no handle alive; the caller must not use q again.
func FreeRequests(q []*Request) { core.GiveArray(nil, q) }
