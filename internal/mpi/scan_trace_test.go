package mpi

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"cmpi/internal/core"
	"cmpi/internal/invariant"
	"cmpi/internal/trace"
)

func TestScanPrefixSums(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		w := collWorld(t, n, DefaultOptions().Mode)
		err := w.Run(func(r *Rank) error {
			buf := EncodeInt64s([]int64{int64(r.Rank() + 1), 1})
			r.Scan(buf, SumInt64)
			got := DecodeInt64s(buf)
			k := int64(r.Rank() + 1)
			if got[0] != k*(k+1)/2 {
				return fmt.Errorf("n=%d rank %d: scan sum %d, want %d", n, r.Rank(), got[0], k*(k+1)/2)
			}
			if got[1] != k {
				return fmt.Errorf("n=%d rank %d: scan count %d, want %d", n, r.Rank(), got[1], k)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestScanMaxProperty(t *testing.T) {
	// Property: scan with Max yields the running maximum of rank values.
	f := func(vals [6]int8) bool {
		w := testWorld(t, "2cont", 6, DefaultOptions())
		ok := true
		err := w.Run(func(r *Rank) error {
			buf := EncodeInt64s([]int64{int64(vals[r.Rank()])})
			r.Scan(buf, MaxInt64)
			want := int64(vals[0])
			for i := 1; i <= r.Rank(); i++ {
				if int64(vals[i]) > want {
					want = int64(vals[i])
				}
			}
			if DecodeInt64s(buf)[0] != want {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestCommGatherScatterSendrecv(t *testing.T) {
	w := testWorld(t, "4cont", 8, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		sub := r.CommWorld().Split(r.Rank()%2, r.Rank())
		// Gather to local root 1.
		mine := []byte{byte(r.Rank())}
		var all []byte
		if sub.Rank() == 1 {
			all = make([]byte, sub.Size())
		}
		sub.Gather(1, mine, all)
		if sub.Rank() == 1 {
			for i := 0; i < sub.Size(); i++ {
				if all[i] != byte(sub.GlobalRank(i)) {
					return fmt.Errorf("gather slot %d = %d", i, all[i])
				}
			}
		}
		// Scatter back.
		back := make([]byte, 1)
		sub.Scatter(1, all, back)
		if back[0] != byte(r.Rank()) {
			return fmt.Errorf("scatter returned %d to world rank %d", back[0], r.Rank())
		}
		// Ring sendrecv over the subcommunicator.
		right := (sub.Rank() + 1) % sub.Size()
		left := (sub.Rank() - 1 + sub.Size()) % sub.Size()
		in := make([]byte, 1)
		st := sub.Sendrecv(right, 0, []byte{byte(sub.Rank())}, left, 0, in)
		if st.Source != left || in[0] != byte(left) {
			return fmt.Errorf("comm sendrecv: got %d from %d, want from %d", in[0], st.Source, left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceEmitsChannelDecisions(t *testing.T) {
	body := func(r *Rank) error {
		if r.Rank() == 0 {
			r.Send(1, 3, make([]byte, 64))
			r.Send(1, 4, make([]byte, 1<<20))
		} else {
			r.Recv(0, 3, make([]byte, 64))
			r.Recv(0, 4, make([]byte, 1<<20))
		}
		return nil
	}
	res := invariant.At(t, row(scenario("2cont", 2), DefaultOptions(), blocking(body), nil),
		invariant.Point{Record: true})
	tr, err := trace.Read(bytes.NewReader(res.Trace))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []trace.Record{
		{Op: trace.OpSend, Rank: 0, Peer: 1, Tag: 3, Path: trace.PathOf(core.PathSHMEager)},
		{Op: trace.OpSend, Rank: 0, Peer: 1, Tag: 4, Path: trace.PathOf(core.PathCMARndv)},
		{Op: trace.OpRecv, Rank: 1, Peer: 0, Tag: 3, Path: trace.PathOf(core.PathSHMEager)},
		{Op: trace.OpRecv, Rank: 1, Peer: 0, Tag: 4, Path: trace.PathOf(core.PathCMARndv)},
	} {
		if !slices.ContainsFunc(tr.Records, func(r trace.Record) bool {
			return r.Op == want.Op && r.Rank == want.Rank && r.Peer == want.Peer && r.Tag == want.Tag && r.Path == want.Path
		}) {
			t.Errorf("trace has no %v record rank=%d peer=%d tag=%d path=%v:\n%s", want.Op, want.Rank, want.Peer, want.Tag, want.Path, res.Trace)
		}
	}
}
