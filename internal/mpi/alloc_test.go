package mpi

import (
	"testing"

	"cmpi/internal/core"
)

// pingpongAllocs measures total host allocations for one world that bounces
// msgs round trips of the given size between ranks 0 and 1, through the
// Rank calls or, with comm, through CommWorld's. Round trips (not a one-way
// stream) keep the in-flight window bounded so pools can recycle.
func pingpongAllocs(t *testing.T, scenario string, mode core.Mode, comm bool, size, msgs int) float64 {
	t.Helper()
	var failure error
	allocs := testing.AllocsPerRun(3, func() {
		opts := DefaultOptions()
		opts.Mode = mode
		w := testWorld(t, scenario, 2, opts)
		err := w.Run(func(r *Rank) error {
			buf := make([]byte, size)
			send, recv := r.Send, r.Recv
			if comm {
				c := r.CommWorld()
				send, recv = c.Send, c.Recv
			}
			for i := 0; i < msgs; i++ {
				if r.Rank() == 0 {
					send(1, 0, buf)
					recv(1, 1, buf)
				} else {
					recv(0, 0, buf)
					send(0, 1, buf)
				}
			}
			return nil
		})
		if err != nil {
			failure = err
		}
	})
	if failure != nil {
		t.Fatal(failure)
	}
	return allocs
}

// perMessageAllocs cancels the fixed world-construction and pool-warmup cost
// by differencing two message counts: steady-state allocations per message.
func perMessageAllocs(t *testing.T, scenario string, mode core.Mode, comm bool, size int) float64 {
	t.Helper()
	const small, big = 64, 320
	a := pingpongAllocs(t, scenario, mode, comm, size, small)
	b := pingpongAllocs(t, scenario, mode, comm, size, big)
	return (b - a) / float64(big-small) / 2 // two messages per round trip
}

// TestShmEagerSteadyStateAllocs locks in the pooled SHM eager path: packets,
// envelopes, requests, send ops, and staging buffers all recycle, so the
// steady state is (amortized) allocation-free, through the Rank calls and
// through a communicator's, whose blocking calls hand their requests back
// too.
func TestShmEagerSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	for _, comm := range []bool{false, true} {
		per := perMessageAllocs(t, "1cont", core.ModeLocalityAware, comm, 512)
		t.Logf("SHM eager (comm=%v): %.3f allocs/message", comm, per)
		if per > 0.5 {
			t.Errorf("SHM eager send/recv (comm=%v) allocates %.3f/message in steady state; want ~0", comm, per)
		}
	}
}

// TestHCAEagerSteadyStateAllocs locks in the pooled HCA eager path: wire
// buffers and SRQ bounce buffers recycle through the rank pools, and the
// deferred-delivery events (arrival + transmit completion) come from the
// device's sendEvt free list instead of per-message closures.
func TestHCAEagerSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	per := perMessageAllocs(t, "2cont", core.ModeDefault, false, 512)
	t.Logf("HCA eager: %.3f allocs/message", per)
	if per > 0.5 {
		t.Errorf("HCA eager send allocates %.3f/message in steady state; want ~0", per)
	}
}

// TestHCARndvSteadyStateAllocs locks in the recycled HCA rendezvous: the
// sender's request goes back to its pool once the pair's rendezvous table has
// let go of it at the sender's RDMA write completion, and the receiver's MR
// handle is reused once the WRITE_IMM has landed, so RTS, CTS and the write
// allocate nothing per message — through the HCA loopback of the stock
// library and across the wire.
func TestHCARndvSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	for _, scenario := range []string{"2cont", "2host"} {
		per := perMessageAllocs(t, scenario, core.ModeDefault, false, 64<<10)
		t.Logf("HCA rendezvous (%s): %.3f allocs/message", scenario, per)
		if per > 0.05 {
			t.Errorf("HCA rendezvous (%s) allocates %.3f/message in steady state; want ~0", scenario, per)
		}
	}
}
