package mpi

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

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
// ExchangeV, making the memory calls ExchangeV makes (World.Digest counts
// pool requests).
func exchangeOracle(r *Rank, blocks [][]byte, tag int) [][]byte {
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
	return in
}

// ExchangeV delivers every block, hands the caller's own back as it is, and
// simulates exactly what the hand-rolled loop did: the same digest and the
// same trace, for empty, uneven, rendezvous-size and self blocks.
func TestExchangeVMatchesTheHandRolledLoop(t *testing.T) {
	const ranks, tag = 6, 5
	run := func(exchange func(*Rank, [][]byte, int) [][]byte) invariant.Run {
		return row(scenario("2cont", ranks), DefaultOptions(), blocking(func(r *Rank) error {
			blocks := make([][]byte, r.Size())
			for d := range blocks {
				blocks[d] = r.AppendMem(nil, exchangeBlock(r.Rank(), d)...)
			}
			self := blocks[r.Rank()]
			in := exchange(r, blocks, tag)
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
	rec := invariant.Point{Width: 1, Record: true}
	want := invariant.At(t, run(exchangeOracle), rec)
	got := invariant.At(t, run((*Rank).ExchangeV), rec)
	if got.Digest != want.Digest {
		t.Errorf("ExchangeV digest %s, the hand-rolled loop's %s", got.Digest, want.Digest)
	}
	if !bytes.Equal(got.Trace, want.Trace) {
		t.Errorf("ExchangeV recorded %d trace bytes that differ from the hand-rolled loop's %d", len(got.Trace), len(want.Trace))
	}
}
