package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"cmpi/internal/core"
	"cmpi/internal/invariant"
)

// Rank.AllocMem, Rank.FreeMem and Rank.WinAllocate (pool.go, rma.go): message
// memory a body borrows from its rank's pool.

// onRank0 runs body on rank 0 of a fresh two-rank world.
func onRank0(t *testing.T, body func(r *Rank)) *World {
	t.Helper()
	w := testWorld(t, "2cont", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			body(r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Inside a world, freed memory is the next request of its class; across
// worlds it travels through the depot, so the second world's body allocates
// next to nothing.
func TestAllocMemReusesFreedMemory(t *testing.T) {
	core.DropDepot()
	const n, bufs = 1 << 20, 8
	body := func(r *Rank) {
		a := r.AllocMem(5000)
		r.FreeMem(a)
		if b := r.AllocMem(4200); &b[0] != &a[0] {
			t.Error("AllocMem after FreeMem of the same class returned other memory")
		}
		var held [bufs][]byte
		for i := range held {
			held[i] = r.AllocMem(n)
		}
		for _, buf := range held {
			r.FreeMem(buf)
		}
	}
	worldBytes := func() (uint64, *World) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := onRank0(t, body)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, w
	}
	cold, w1 := worldBytes()
	if c := w1.SimStats().BufPool; c.Depot != 0 {
		t.Fatalf("first world after DropDepot took %d buffers from the depot", c.Depot)
	}
	warm, w2 := worldBytes()
	if c := w2.SimStats().BufPool; c.Depot < bufs {
		t.Errorf("second world took %d buffers from the depot, want at least the %d it freed", c.Depot, bufs)
	}
	if cold < bufs*n || warm > 1<<20 {
		t.Errorf("TotalAlloc: first world %d bytes, second %d; want >= %d and under 1 MiB", cold, warm, bufs*n)
	}
}

// What FreeMem must shrug off, and what AllocMem returns for nothing.
func TestFreeMemNoOps(t *testing.T) {
	onRank0(t, func(r *Rank) {
		if buf := r.AllocMem(0); buf != nil {
			t.Errorf("AllocMem(0) = %d-byte slice, want nil", len(buf))
		}
		r.FreeMem(nil)
		whole := r.AllocMem(1000)
		r.FreeMem(whole[10:500])
		plain := make([]byte, 1000)
		r.FreeMem(plain)
		if got := r.AllocMem(1000); &got[0] == &whole[0] || &got[0] == &plain[0] || &got[0] == &whole[10] {
			t.Error("a subslice or a make'd slice came back out of the pool")
		}
		r.FreeMem(whole)
		if got := r.AllocMem(1000); &got[0] != &whole[0] {
			t.Error("the whole buffer, freed, did not come back")
		}
	})
}

// A window of the depot's largest class comes back, in the next world, as
// the same two arrays; its bytes arrive on the way.
func TestWinAllocateRoundTripsThroughTheLargeClasses(t *testing.T) {
	const n = 16 << 20
	run := func() map[*byte]bool {
		mem := map[*byte]bool{}
		w := testWorld(t, "2cont", 2, DefaultOptions())
		err := w.Run(func(r *Rank) error {
			win := r.WinAllocate(n)
			if len(win.buf) != n {
				return fmt.Errorf("window is %d bytes, want %d", len(win.buf), n)
			}
			mem[&win.buf[0]] = true
			src := r.AllocMem(4096)
			defer r.FreeMem(src)
			for i := range src {
				src[i] = byte(i + r.Rank())
			}
			win.Fence()
			win.Put(1-r.Rank(), n-len(src), src)
			win.Fence()
			for i, b := range win.buf[n-len(src):] {
				if b != byte(i+1-r.Rank()) {
					return fmt.Errorf("rank %d: window byte %d = %d after the peer's put", r.Rank(), i, b)
				}
			}
			win.Free()
			if win.buf != nil {
				return fmt.Errorf("rank %d still sees the window's memory after Free", r.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return mem
	}
	first, second := run(), run()
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("windows of two ranks share memory: %d and %d arrays", len(first), len(second))
	}
	for p := range second {
		if !first[p] {
			t.Error("the second world's 16 MiB window is not one the first world freed")
		}
	}
}

// Win.Free hands a WinAllocate window's memory back once, however often it
// is called; a WinCreate window's memory stays the caller's.
func TestWinAllocateMemoryGoesBackOnceAtFree(t *testing.T) {
	strictPools(t) // a second Put of the same buffer would panic at the drain
	w := testWorld(t, "2cont", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		win := r.WinAllocate(1000)
		mem := &win.buf[0]
		win.Free()
		a := r.AllocMem(1000)
		if &a[0] != mem {
			return fmt.Errorf("rank %d: Free did not return the window's memory", r.Rank())
		}
		win.Free()
		if b := r.AllocMem(1000); &b[0] == mem {
			return fmt.Errorf("rank %d: a second Free returned memory that is in use", r.Rank())
		}
		mine := make([]byte, 1<<10+64) // a pool class's exact capacity
		created := r.WinCreate(mine)
		created.Free()
		if c := r.AllocMem(1000); &c[0] == &mine[0] {
			return fmt.Errorf("rank %d: Free pooled memory WinCreate was given", r.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Under poolStrict a body that writes through memory it freed, after its
// world ended, is caught by the next world to be handed that memory. (A
// double FreeMem: TestPoolStrictTripsOnDoublePut.)
func TestPoolStrictCatchesWriteAfterTheWorldEnded(t *testing.T) {
	strictPools(t)
	var kept []byte
	onRank0(t, func(r *Rank) {
		kept = r.AllocMem(100)
		r.FreeMem(kept)
	})
	kept[50] = 7
	w := testWorld(t, "2cont", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			r.AllocMem(100)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "written after its world ended") {
		t.Errorf("second world: %v, want the depot's stale-write panic", err)
	}
}

// AppendMem grows a buffer from nil through every class, past the largest
// an owner's pool lists (4 MiB) and the largest the depot holds (16 MiB),
// keeping what was appended; under poolStrict too, whose drain panics on a
// buffer freed twice.
func TestAppendMemGrowsPastTheLargestClasses(t *testing.T) {
	body := func(r *Rank) {
		const total = 17<<20 + 12345
		var buf []byte
		chunk := make([]byte, 3<<10+5)
		for len(buf) < total {
			for i := range chunk {
				chunk[i] = byte((len(buf) + i) % 251)
			}
			buf = r.AppendMem(buf, chunk...)
		}
		for i, b := range buf {
			if b != byte(i%251) {
				t.Errorf("byte %d of %d is %d, want %d", i, len(buf), b, byte(i%251))
				break
			}
		}
		if cap(buf) > len(buf)+len(buf)/4+len(chunk) {
			t.Errorf("%d bytes in a buffer of %d", len(buf), cap(buf))
		}
		r.FreeMem(buf)
	}
	t.Run("default", func(t *testing.T) { onRank0(t, body) })
	t.Run("poolStrict", func(t *testing.T) {
		strictPools(t)
		onRank0(t, body)
	})
}

// The buffer AppendMem outgrows goes back to the pool: the next request of
// its class is served from the pool with that very memory.
func TestAppendMemFreesTheOutgrownBuffer(t *testing.T) {
	onRank0(t, func(r *Rank) {
		buf := r.AppendMem(nil, make([]byte, 100)...)
		old := &buf[0]
		buf = r.AppendMem(buf, make([]byte, 100)...)
		if len(buf) != 200 || &buf[0] == old {
			t.Errorf("AppendMem past the capacity kept the buffer (len %d)", len(buf))
			return
		}
		before := r.pools.buf.Counters()
		again := r.AllocMem(100)
		if hits := r.pools.buf.Counters().Hits - before.Hits; hits != 1 || &again[0] != old {
			t.Errorf("AllocMem of the outgrown class: %d pool hits, same memory %v; want 1, true", hits, &again[0] == old)
		}
		if got := r.AppendMem(again, 1, 2, 3); &got[0] != old || len(got) != 103 {
			t.Error("AppendMem within the capacity moved the buffer")
		}
	})
}

// exchangeBlock is what rank src sends rank dst in the ExchangeV tests: empty
// for every third pair, one rendezvous-size block, the rest uneven.
func exchangeBlock(src, dst int) []byte {
	n := (src*7 + dst*13) % 300
	switch {
	case (src+dst)%3 == 0:
		n = 0
	case src == 1 && dst == 4:
		n = 20000
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(src*16 + dst + i)
	}
	return b
}

// exchangeOracle is the loop Graph 500, IS and CG each carried before
// ExchangeV, with what it received copied into blocks at the end.
func exchangeOracle(r *Rank, blocks [][]byte, tag int) {
	counts, inCounts := r.AllocMem(8*r.Size()), r.AllocMem(8*r.Size())
	for d, b := range blocks {
		le.PutUint64(counts[8*d:], uint64(len(b)))
	}
	r.Alltoall(counts, inCounts, 8)
	in := make([][]byte, r.Size())
	var reqs []*Request
	for peer := 0; peer < r.Size(); peer++ {
		if peer == r.Rank() {
			in[peer] = blocks[peer]
			continue
		}
		in[peer] = r.AllocMem(int(le.Uint64(inCounts[8*peer:])))
		if len(in[peer]) > 0 {
			reqs = append(reqs, r.Irecv(peer, tag, in[peer]))
		}
		if len(blocks[peer]) > 0 {
			reqs = append(reqs, r.Isend(peer, tag, blocks[peer]))
		}
	}
	r.WaitAll(reqs...)
	r.Release(reqs...)
	for d, b := range blocks {
		if d != r.Rank() {
			r.FreeMem(b)
		}
	}
	r.FreeMem(counts)
	r.FreeMem(inCounts)
	copy(blocks, in)
}

// ExchangeV delivers every block, hands the caller's own back as it is, and
// simulates exactly what the hand-rolled loop did: the same digest and the
// same trace, for empty, uneven, rendezvous-size and self blocks.
func TestExchangeVMatchesTheHandRolledLoop(t *testing.T) {
	const ranks, tag = 6, 5
	run := func(exchange func(*Rank, [][]byte, int)) invariant.Run {
		return row(scenario("2cont", ranks), DefaultOptions(), blocking(func(r *Rank) error {
			blocks := make([][]byte, r.Size())
			for d := range blocks {
				blocks[d] = r.AppendMem(nil, exchangeBlock(r.Rank(), d)...)
			}
			self := blocks[r.Rank()]
			exchange(r, blocks, tag)
			in := blocks
			for s, got := range in {
				if want := exchangeBlock(s, r.Rank()); !bytes.Equal(got, want) {
					return fmt.Errorf("rank %d: %d bytes from %d, want %d", r.Rank(), len(got), s, len(want))
				}
				r.FreeMem(got)
			}
			if len(self) > 0 && &in[r.Rank()][0] != &self[0] {
				return fmt.Errorf("rank %d: its own block came back as other memory", r.Rank())
			}
			return nil
		}), nil)
	}
	rec := invariant.Point{Record: true}
	want := invariant.At(t, run(exchangeOracle), rec)
	got := invariant.At(t, run((*Rank).ExchangeV), rec)
	if got.Digest != want.Digest {
		t.Errorf("ExchangeV digest %s, the hand-rolled loop's %s", got.Digest, want.Digest)
	}
	if !bytes.Equal(got.Trace, want.Trace) {
		t.Errorf("ExchangeV recorded %d trace bytes that differ from the hand-rolled loop's %d", len(got.Trace), len(want.Trace))
	}
}

// ExchangeV is in place: blocks[me] is still the caller's own block, every
// other entry is the block that peer sent, and each is pool memory that
// FreeMem takes back (the next AllocMem of its size is that very memory).
// Under poolStrict, where a block freed twice, or freed by ExchangeV and
// handed back too, trips the depot and the world's drain.
func TestExchangeVInPlace(t *testing.T) {
	strictPools(t)
	const ranks, tag = 6, 5
	w := testWorld(t, "2cont", ranks, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		blocks := NewBlocks(r.Size())
		defer FreeBlocks(blocks)
		for d := range blocks {
			blocks[d] = r.AppendMem(nil, exchangeBlock(r.Rank(), d)...)
		}
		self := blocks[r.Rank()]
		r.ExchangeV(blocks, tag)
		for s, got := range blocks {
			if want := exchangeBlock(s, r.Rank()); !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d: blocks[%d] has %d bytes, want the %d rank %d sent", r.Rank(), s, len(got), len(want), s)
			}
			if s == r.Rank() && (len(got) != len(self) || len(got) > 0 && &got[0] != &self[0]) {
				return fmt.Errorf("rank %d: its own block was not kept", r.Rank())
			}
			r.FreeMem(got)
			if len(got) == 0 {
				continue
			}
			if again := r.AllocMem(len(got)); &again[0] != &got[0] {
				return fmt.Errorf("rank %d: the block from %d did not go back to the pool", r.Rank(), s)
			} else {
				r.FreeMem(again)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// NewBlocks and NewRequests hand out cleared lists with room for what was
// asked, FreeBlocks takes back a list of any capacity, as one that append
// grew past its class, and the next list of a size it serves is that one;
// under poolStrict a list freed twice panics.
func TestNewBlocksReusesFreedLists(t *testing.T) {
	strictPools(t)
	if b := NewBlocks(5); len(b) != 5 || cap(b) < 5 {
		t.Fatalf("NewBlocks(5): length %d, capacity %d", len(b), cap(b))
	} else {
		FreeBlocks(b)
	}
	b := make([][]byte, 45)
	b[0] = []byte{1}
	FreeBlocks(b)
	again := NewBlocks(32)
	if &again[:1][0] != &b[0] {
		t.Error("NewBlocks(32) did not take the grown list FreeBlocks listed")
	}
	for i, x := range again[:cap(again)] {
		if x != nil {
			t.Fatalf("entry %d of a list from the free list is %v, not cleared", i, x)
		}
	}
	FreeBlocks(again)
	if q := NewRequests(7); len(q) != 0 || cap(q) < 7 {
		t.Errorf("NewRequests(7): length %d, capacity %d", len(q), cap(q))
	} else {
		FreeRequests(q)
		defer func() {
			if recover() == nil {
				t.Error("a request list freed twice did not panic under poolStrict")
			}
			NewRequests(7) // the one FreeRequests listed
		}()
		FreeRequests(q)
	}
}

// Under poolStrict a block list or a request list written after it was
// handed back panics at the next take of its class: the caller that kept it
// would be writing into another caller's list.
func TestPoolStrictCatchesWritesToFreedLists(t *testing.T) {
	strictPools(t)
	takes := []struct {
		name  string
		write func()
		take  func()
	}{
		{"block list", func() {
			b := NewBlocks(4)
			FreeBlocks(b)
			b[2] = []byte{1}
		}, func() { NewBlocks(4) }},
		{"request list", func() {
			q := NewRequests(4)
			FreeRequests(q)
			q[:4][3] = new(Request)
		}, func() { NewRequests(4) }},
	}
	for _, tc := range takes {
		tc.write()
		func() {
			defer func() {
				if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "written after it was given back") {
					t.Errorf("%s written after FreeBlocks/FreeRequests: the next take recovered %v, want the depot's panic", tc.name, v)
				}
			}()
			tc.take()
		}()
	}
}

// Worlds that run side by side (repro -j) share the free lists: a list is
// never handed to two holders at once, whatever the goroutines interleave.
func TestNewBlocksFromManyGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mark := []byte{byte(g)}
			for i := 0; i < 500; i++ {
				b := NewBlocks(1 + (g+i)%40)
				for j := range b {
					b[j] = mark
				}
				runtime.Gosched()
				for j := range b {
					if &b[j][0] != &mark[0] {
						t.Errorf("goroutine %d: entry %d of its list was written by another holder", g, j)
						return
					}
				}
				FreeBlocks(b)
			}
		}()
	}
	wg.Wait()
}

// AllocMemOf and FreeMemOf (usermem.go): typed views of AllocMem's buffers.

// A typed view spans its whole class buffer, and FreeMemOf hands back that
// very buffer: the next request of the class, typed or not, gets it.
func TestTypedMemRoundTrip(t *testing.T) {
	onRank0(t, func(r *Rank) {
		f := AllocMemOf[float64](r, 100) // 800 bytes: the 1088-byte class
		if len(f) != 100 || cap(f) != 1088/8 {
			t.Errorf("AllocMemOf[float64](100): len %d cap %d, want 100 and %d", len(f), cap(f), 1088/8)
		}
		mem := unsafe.Pointer(&f[0])
		FreeMemOf(r, f)
		b := r.AllocMem(1000)
		if unsafe.Pointer(&b[0]) != mem || cap(b) != 1088 {
			t.Errorf("AllocMem after FreeMemOf: same memory %v, cap %d; want true, 1088", unsafe.Pointer(&b[0]) == mem, cap(b))
		}
		r.FreeMem(b)
		u := AllocMemOf[uint32](r, 200)
		if unsafe.Pointer(&u[0]) != mem || cap(u) != 1088/4 {
			t.Errorf("AllocMemOf[uint32] after FreeMem: same memory %v, cap %d", unsafe.Pointer(&u[0]) == mem, cap(u))
		}
		FreeMemOf(r, u[:0]) // any length of it: the capacity is what counts
		if again := AllocMemOf[int32](r, 250); unsafe.Pointer(&again[0]) != mem {
			t.Error("FreeMemOf of an emptied view did not hand the buffer back")
		}
	})
}

// complex128 views are aligned for complex128 at every class, the depot's
// large ones included, and span a whole number of elements.
func TestTypedMemComplexAligned(t *testing.T) {
	onRank0(t, func(r *Rank) {
		for _, n := range []int{1, 3, 40, 100, 1 << 10, 5 << 16, 1 << 20} {
			v := AllocMemOf[complex128](r, n)
			if p := uintptr(unsafe.Pointer(&v[0])); p%unsafe.Alignof(v[0]) != 0 {
				t.Errorf("AllocMemOf[complex128](%d) at %#x, not %d-aligned", n, p, unsafe.Alignof(v[0]))
			}
			if len(v) != n || cap(v) < n {
				t.Errorf("AllocMemOf[complex128](%d): len %d cap %d", n, len(v), cap(v))
			}
			for i := range v {
				v[i] = complex(float64(i), -float64(i))
			}
			if v[n-1] != complex(float64(n-1), -float64(n-1)) {
				t.Errorf("AllocMemOf[complex128](%d): last element reads back %v", n, v[n-1])
			}
			FreeMemOf(r, v)
		}
	})
}

// Zero elements is nil, and nil is safe to free.
func TestTypedMemZeroLength(t *testing.T) {
	onRank0(t, func(r *Rank) {
		if v := AllocMemOf[int64](r, 0); v != nil {
			t.Errorf("AllocMemOf(0) = slice of cap %d, want nil", cap(v))
		}
		FreeMemOf[float64](r, nil)
	})
}

// The view's contents are undefined like AllocMem's: under poolStrict, a
// buffer an earlier world freed shows its poison through the view. The depot
// starts empty, so a full one cannot refuse that buffer.
func TestTypedMemShowsPoison(t *testing.T) {
	strictPools(t)
	core.DropDepot()
	const n = 4000 // 32000 bytes: the 32832-byte class, which the library's own traffic here never takes
	onRank0(t, func(r *Rank) { FreeMemOf(r, AllocMemOf[uint64](r, n)) })
	onRank0(t, func(r *Rank) {
		before := r.pools.buf.Counters().Depot
		v := AllocMemOf[uint64](r, n)
		defer FreeMemOf(r, v)
		if r.pools.buf.Counters().Depot != before+1 {
			t.Fatal("the second world's buffer did not come from the depot")
		}
		for i, x := range v[:cap(v)] {
			if x != 0xDBDBDBDBDBDBDBDB {
				t.Fatalf("element %d of %d is %#x, want the depot's poison", i, cap(v), x)
			}
		}
	})
}

// A generator from the free list restarts the stream its seed names, however
// far its last user drew.
func TestNewRandRestartsTheStream(t *testing.T) {
	g := NewRand(1)
	for range 1000 {
		g.Int63()
	}
	g.Read(make([]byte, 5)) // leaves a partial read pending in the Rand
	FreeRand(g)
	for _, seed := range []int64{0, 42, -7} {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := range 700 {
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("seed %d draw %d: %d from the free list, %d from NewSource", seed, i, a, b)
			}
		}
		var a, b [7]byte
		got.Read(a[:])
		want.Read(b[:])
		if a != b {
			t.Errorf("seed %d: Read gives %x from the free list, %x from NewSource", seed, a, b)
		}
		FreeRand(got)
	}
}

// DropDepot returns the process to one that has run no world: the free lists
// of block lists, request lists and generators are empty after it, as the
// depot's list of programs is. Each first shows that it would have served
// its object again.
func TestDropDepotEmptiesTheProcessFreeLists(t *testing.T) {
	mk := AllreduceProgram(1, 64)
	var progs []Program
	w := testWorld(t, "2cont", 2, DefaultOptions())
	if err := w.RunMachine(func(rank int) Program {
		progs = append(progs, mk(rank))
		return progs[len(progs)-1]
	}); err != nil {
		t.Fatal(err)
	}
	blocks, reqs, g := NewBlocks(8), NewRequests(8), NewRand(1)
	free := func() {
		FreeBlocks(blocks)
		FreeRequests(reqs)
		FreeRand(g)
	}
	// take takes a block list, a request list, a generator and a program,
	// and reports which of them the process had before.
	take := func() [4]bool {
		b, q, h, p := NewBlocks(8), NewRequests(8), NewRand(1), mk(0)
		reused := [4]bool{&b[:1][0] == &blocks[:1][0], &q[:1][0] == &reqs[:1][0], h == g, slices.Contains(progs, p)}
		blocks, reqs, g = b, q, h
		return reused
	}
	free()
	if got := take(); got != [4]bool{true, true, true, true} {
		t.Fatalf("before DropDepot: block list, request list, generator, program reused %v; want all", got)
	}
	free()
	core.DropDepot()
	if got := take(); got != [4]bool{} {
		t.Errorf("after DropDepot: block list, request list, generator, program reused %v; want none", got)
	}
}
