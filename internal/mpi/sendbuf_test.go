package mpi

import (
	"errors"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/sim"
)

// Send-buffer semantics, pinned per channel. The channels differ in when the
// library stops reading the user's buffer — an eager send has its own copy
// before Isend returns, a rendezvous send reads the buffer in place until the
// request completes — and each test scribbles over the buffer at the earliest
// moment MPI allows, then checks that the receiver still got the original.

// checkPattern verifies buf still holds fill(buf, 0, salt) (stress_test.go).
func checkPattern(t *testing.T, what string, buf []byte, salt int) {
	t.Helper()
	want := make([]byte, len(buf))
	fill(want, 0, salt)
	for i := range buf {
		if buf[i] != want[i] {
			t.Errorf("%s: byte %d = %#x, want %#x (the sender's later writes leaked into the message)", what, i, buf[i], want[i])
			return
		}
	}
}

func scribble(buf []byte) {
	for i := range buf {
		buf[i] = 0xEE
	}
}

func TestSendBufferSemantics(t *testing.T) {
	mode := func(m core.Mode) Options {
		opts := DefaultOptions()
		opts.Mode = m
		opts.Profile = true
		return opts
	}
	degraded := mode(core.ModeLocalityAware)
	degraded.FaultPlan = fault.NewPlan().CMAFail(0, 0, 0)
	cases := []struct {
		name  string
		world func() *World
		size  int
		// eager: the buffer is the sender's again as soon as Isend returns.
		// Otherwise it must stay untouched until Wait, and is free right after.
		eager bool
		ch    core.Channel
	}{
		{"shm-eager", func() *World { return testWorld(t, "1cont", 2, mode(core.ModeLocalityAware)) }, 512, true, core.ChannelSHM},
		{"hca-eager", func() *World { return testWorld(t, "2cont", 2, mode(core.ModeDefault)) }, 512, true, core.ChannelHCA},
		{"cma-rndv", func() *World { return testWorld(t, "1cont", 2, mode(core.ModeLocalityAware)) }, 256 << 10, false, core.ChannelCMA},
		// Streamed rendezvous completes at the sender's last push, while up
		// to a ring's worth of fragments is still waiting to be copied out.
		{"shm-rndv", func() *World { return shmRndvWorld(t, 2, mode(core.ModeLocalityAware)) }, 1 << 20, false, core.ChannelSHM},
		{"cma-degraded-to-shm", func() *World { return testWorld(t, "1cont", 2, degraded) }, 1 << 20, false, core.ChannelSHM},
		{"hca-rndv", func() *World { return testWorld(t, "2cont", 2, mode(core.ModeDefault)) }, 256 << 10, false, core.ChannelHCA},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.world()
			err := w.Run(func(r *Rank) error {
				if r.Rank() == 0 {
					// Two messages from one buffer: the second fill is itself a
					// "scribble" over the first message's bytes.
					buf := make([]byte, tc.size)
					for salt := 1; salt <= 2; salt++ {
						fill(buf, 0, salt)
						req := r.Isend(1, salt, buf)
						if tc.eager {
							scribble(buf)
						}
						r.Wait(req)
						scribble(buf)
					}
				} else {
					buf := make([]byte, tc.size)
					for salt := 1; salt <= 2; salt++ {
						r.Recv(0, salt, buf)
						checkPattern(t, tc.name, buf, salt)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := w.Prof.TotalChannels().Bytes[tc.ch]; got < uint64(2*tc.size) {
				t.Errorf("channel %v carried %d B, want both %d B messages: the case no longer reaches its path", tc.ch, got, tc.size)
			}
			if tc.name == "cma-degraded-to-shm" && w.Prof.TotalFaults().CMAFallbacks == 0 {
				t.Error("no CMA fallback recorded: the plan no longer degrades the transfer")
			}
		})
	}
}

// TestRMABufferSemantics: over the HCA a Put reads its source, and a Get
// writes its destination, until Flush; right after, the origin may overwrite
// the source and the target may overwrite the window without touching what
// was transferred.
func TestRMABufferSemantics(t *testing.T) {
	const size = 64 << 10
	opts := DefaultOptions()
	opts.Mode = core.ModeDefault // co-resident but undetected: HCA loopback
	w := testWorld(t, "2cont", 2, opts)
	err := w.Run(func(r *Rank) error {
		win := make([]byte, size)
		if r.Rank() == 1 {
			fill(win, 0, 9)
		}
		wn := r.WinCreate(win)
		defer wn.Free()
		wn.Fence()
		got := make([]byte, size)
		if r.Rank() == 0 {
			wn.Get(1, 0, got)
			wn.Flush()
		}
		wn.Fence()
		if r.Rank() == 1 {
			scribble(win) // the Get is complete: the window is the target's again
		} else {
			checkPattern(t, "get", got, 9)
			src := make([]byte, size)
			fill(src, 0, 3)
			wn.Put(1, 0, src)
			wn.Flush()
			scribble(src) // the Put is remotely complete: the source is ours again
		}
		wn.Fence()
		if r.Rank() == 1 {
			checkPattern(t, "put", win, 3)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// notPooled fails the test if the lists rank r draws snapshots for peer from
// would hand out buf itself.
func notPooled(t *testing.T, r *Rank, peer int, buf []byte) {
	t.Helper()
	d := r.peer(peer).ps.ring.out(r.rank)
	for i := 0; i < 4; i++ {
		if got := d.snaps.Get(&r.pools.buf, len(buf)); &got[0] == &buf[0] {
			t.Fatal("the borrowed user buffer came back out of a pool")
		}
	}
}

// TestBorrowedSendBufferNeverPooled: a CMA rendezvous op's data is the user's
// own buffer, lent for the transfer. When the op is retired — by the FIN, or
// because the receiver crashed while the op waited for one — the buffer goes
// back to the user, not to a free list where the next snapshot would scribble
// over it. The buffer's capacity is exactly a pool class (64 KiB plus the 64
// bytes of slack core.BufPool gives classes from 1 KiB up), so a Put would
// accept it.
func TestBorrowedSendBufferNeverPooled(t *testing.T) {
	const size = 64 << 10
	opts := DefaultOptions()
	opts.Mode = core.ModeLocalityAware
	opts.ErrHandler = ErrorsRecover
	opts.FaultPlan = fault.NewPlan().RankCrash(1, 200*sim.Microsecond)
	w := testWorld(t, "1cont", 2, opts)
	err := w.Run(func(r *Rank) error {
		buf := make([]byte, size, size+64)
		if r.Rank() == 1 {
			r.Recv(0, 0, buf)
			checkPattern(t, "first message", buf, 5)
			r.Compute(1e6) // dies in here, before posting the second receive
			return nil
		}
		// Retired by the FIN.
		fill(buf, 0, 5)
		r.Send(1, 0, buf)
		notPooled(t, r, 1, buf)

		// Retired by the receiver's death.
		req := r.Isend(1, 1, buf)
		r.Wait(req)
		var pf *ProcFailedError
		if !errors.As(req.Err(), &pf) || pf.Peer != 1 {
			t.Errorf("send to the crashed rank completed with %v, want a ProcFailedError for peer 1", req.Err())
		}
		if n := len(r.peer(1).q.finWait); n != 0 {
			t.Errorf("%d ops still wait for a FIN from the dead rank", n)
		}
		notPooled(t, r, 1, buf)
		checkPattern(t, "buffer after the failed send", buf, 5)
		return nil
	})
	// The victim's CrashError is the job's error; the survivor's body passed.
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Rank != 1 {
		t.Fatalf("job error = %v, want rank 1's CrashError", err)
	}
}
