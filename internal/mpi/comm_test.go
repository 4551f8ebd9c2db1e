package mpi

import (
	"fmt"
	"testing"

	"cmpi/internal/core"
)

func TestCommWorldMirrorsRank(t *testing.T) {
	w := testWorld(t, "2cont", 4, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		c := r.CommWorld()
		if c.Rank() != r.Rank() || c.Size() != r.Size() {
			return fmt.Errorf("world comm rank/size mismatch: %d/%d", c.Rank(), c.Size())
		}
		if c.GlobalRank(c.Rank()) != r.Rank() {
			return fmt.Errorf("global rank translation broken")
		}
		// pt2pt over the world comm.
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("via comm"))
		} else if c.Rank() == 1 {
			buf := make([]byte, 16)
			st := c.Recv(0, 5, buf)
			if st.Source != 0 || string(buf[:st.Bytes]) != "via comm" {
				return fmt.Errorf("comm recv: %+v %q", st, buf[:st.Bytes])
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The world and the world communicator hand the same group to the same
	// collective functions, so an exchange through either is the same run.
	for _, n := range []int{8, 12} {
		for _, size := range []int{64, 64 << 10} {
			digest := func(api string) string {
				w := testWorld(t, "4cont", n, DefaultOptions())
				if err := w.Run(func(r *Rank) error { return exchanges(via(r, api), size) }); err != nil {
					t.Fatal(err)
				}
				return w.Digest()
			}
			if a, b := digest("rank"), digest("world-comm"); a != b {
				t.Errorf("%d ranks, %d B: Rank digest %s, CommWorld digest %s", n, size, a, b)
			}
		}
	}
}

func TestSplitEvenOdd(t *testing.T) {
	w := testWorld(t, "4cont", 8, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		world := r.CommWorld()
		sub := world.Split(r.Rank()%2, r.Rank())
		if sub == nil {
			return fmt.Errorf("rank %d got nil comm", r.Rank())
		}
		if sub.Size() != 4 {
			return fmt.Errorf("subcomm size %d", sub.Size())
		}
		// Members are the same-parity ranks in rank order.
		want := r.Rank() / 2
		if sub.Rank() != want {
			return fmt.Errorf("rank %d: subcomm rank %d, want %d", r.Rank(), sub.Rank(), want)
		}
		// Collectives stay inside the subcommunicator.
		sum := EncodeInt64s([]int64{int64(r.Rank())})
		sub.Allreduce(sum, SumInt64)
		wantSum := int64(0 + 2 + 4 + 6)
		if r.Rank()%2 == 1 {
			wantSum = 1 + 3 + 5 + 7
		}
		if got := DecodeInt64s(sum)[0]; got != wantSum {
			return fmt.Errorf("rank %d: subcomm sum %d, want %d", r.Rank(), got, wantSum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	w := testWorld(t, "2cont", 4, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		world := r.CommWorld()
		// Reverse ordering by key.
		sub := world.Split(0, -r.Rank())
		if sub.Rank() != r.Size()-1-r.Rank() {
			return fmt.Errorf("rank %d: key-reversed comm rank %d", r.Rank(), sub.Rank())
		}
		// Bcast from comm-local root 0 == world rank 3.
		data := make([]byte, 8)
		if sub.Rank() == 0 {
			data[0] = 42
		}
		sub.Bcast(0, data)
		if data[0] != 42 {
			return fmt.Errorf("bcast over reordered comm failed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefined(t *testing.T) {
	w := testWorld(t, "2cont", 4, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		world := r.CommWorld()
		color := 0
		if r.Rank() == 3 {
			color = Undefined
		}
		sub := world.Split(color, 0)
		if r.Rank() == 3 {
			if sub != nil {
				return fmt.Errorf("undefined color must return nil")
			}
			return nil
		}
		if sub == nil || sub.Size() != 3 {
			return fmt.Errorf("sub = %v", sub)
		}
		sub.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommIsolationFromWorldTraffic(t *testing.T) {
	// Messages on a subcommunicator must not match world receives with the
	// same source and tag, and vice versa.
	w := testWorld(t, "2cont", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		world := r.CommWorld()
		sub := world.Split(0, r.Rank())
		const tag = 7
		if r.Rank() == 0 {
			sub.Send(1, tag, []byte{0xAA}) // comm message first
			r.Send(1, tag, []byte{0xBB})   // then world message
		} else {
			// Receive in the opposite order: world first.
			bw := make([]byte, 1)
			r.Recv(0, tag, bw)
			bc := make([]byte, 1)
			sub.Recv(0, tag, bc)
			if bw[0] != 0xBB || bc[0] != 0xAA {
				return fmt.Errorf("cross-communicator match: world=%x comm=%x", bw[0], bc[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplitContextsDistinct(t *testing.T) {
	w := testWorld(t, "4cont", 8, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		world := r.CommWorld()
		half := world.Split(r.Rank()/4, r.Rank()) // {0..3}, {4..7}
		quarter := half.Split(half.Rank()/2, half.Rank())
		if quarter.Size() != 2 {
			return fmt.Errorf("quarter size %d", quarter.Size())
		}
		// Distinct contexts for comms sharing this rank.
		if half.ctx == quarter.ctx || half.ctx == world.ctx {
			return fmt.Errorf("context reuse among nested comms: %d %d %d", world.ctx, half.ctx, quarter.ctx)
		}
		// All three levels function concurrently.
		if got := func() int64 {
			b := EncodeInt64s([]int64{1})
			quarter.Allreduce(b, SumInt64)
			return DecodeInt64s(b)[0]
		}(); got != 2 {
			return fmt.Errorf("quarter allreduce %d", got)
		}
		if got := func() int64 {
			b := EncodeInt64s([]int64{1})
			half.Allreduce(b, SumInt64)
			return DecodeInt64s(b)[0]
		}(); got != 4 {
			return fmt.Errorf("half allreduce %d", got)
		}
		if got := r.AllreduceInt64(1, SumInt64); got != 8 {
			return fmt.Errorf("world allreduce %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommCollectivesMatchFlatResults runs every blocking collective the
// world and a communicator share through each way in, at two world sizes
// (power of two and not) and an eager and a rendezvous size, and checks
// every result against the closed-form reference.
func TestCommCollectivesMatchFlatResults(t *testing.T) {
	for _, api := range []string{"rank", "world-comm", "split"} {
		for _, n := range []int{8, 12} {
			for _, size := range []int{64, 64 << 10} {
				t.Run(fmt.Sprintf("%s/%d/%d", api, n, size), func(t *testing.T) {
					w := testWorld(t, "4cont", n, DefaultOptions())
					err := w.Run(func(r *Rank) error {
						c := via(r, api)
						if err := reductions(c, size); err != nil {
							return err
						}
						return exchanges(c, size)
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func TestSubcommunicatorUsesLocalityChannels(t *testing.T) {
	// A per-host subcommunicator's traffic between co-resident containers
	// must still ride SHM/CMA in aware mode.
	opts := DefaultOptions()
	opts.Mode = core.ModeLocalityAware
	opts.Profile = true
	w := testWorld(t, "2cont", 4, opts)
	err := w.Run(func(r *Rank) error {
		world := r.CommWorld()
		sub := world.Split(0, r.Rank()) // everyone, but over the subcomm ctx
		buf := make([]byte, 4096)
		sub.Allreduce(buf, SumFloat64)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := w.Prof.TotalChannels().Ops
	if ops[core.ChannelHCA] != 0 {
		t.Errorf("single-host subcomm traffic hit the HCA: %v", ops)
	}
	if ops[core.ChannelSHM] == 0 {
		t.Errorf("no SHM traffic recorded: %v", ops)
	}
}
