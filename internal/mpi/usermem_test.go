package mpi

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cmpi/internal/core"
)

// Rank.AllocMem, Rank.FreeMem and Rank.WinAllocate (pool.go, rma.go): message
// memory a body borrows from its rank's pool.
//
// This file sorts after peer_test.go on purpose, like poolstrict_test.go: the
// 16 MiB windows below stay in the depot, and HeapSys never falls.

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
	core.DropDepot()
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
	core.DropDepot()
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
	core.DropDepot()
	t.Cleanup(core.DropDepot)
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
