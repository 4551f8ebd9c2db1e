package mpi

import (
	"fmt"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/perf"
	"cmpi/internal/profile"
	"cmpi/internal/sim"
)

// TestChannelCreditOracle runs one message or one-sided access per 2-rank
// profiled world and checks each rank's per-channel operation and byte counts
// against values worked out here by hand from the message size and the ring
// cell, in the sense of the paper's Table I: a sender pushes one SHM
// operation per ring cell its payload fills (an empty eager message still
// pushes its first packet, a self-send is one local copy); a CMA rendezvous
// is one process_vm_readv on the receiver; an HCA send is one work-request
// post on the sender, eager or rendezvous; an RMA access is one operation of
// its channel on the origin. Control packets (RTS, CTS, FIN) count nothing.
func TestChannelCreditOracle(t *testing.T) {
	cell := perf.Default().ShmCellPayload
	// frags is how many ring cells a payload of n bytes fills.
	frags := func(n int) uint64 { return uint64((n + cell - 1) / cell) }
	// on is one rank's counters with ops operations of bytes on channel ch.
	on := func(ch core.Channel, ops uint64, bytes int) profile.ChannelStats {
		var c profile.ChannelStats
		c.Ops[ch], c.Bytes[ch] = ops, uint64(bytes)
		return c
	}
	none := profile.ChannelStats{}

	// pair sends n bytes from rank 0 to rank 1 (a self-send when self).
	pair := func(n int, self bool) func(r *Rank) {
		return func(r *Rank) {
			switch {
			case self && r.Rank() == 0:
				rq := r.Irecv(0, 0, make([]byte, n))
				r.Send(0, 0, make([]byte, n))
				r.Wait(rq)
			case self:
			case r.Rank() == 0:
				r.Send(1, 0, make([]byte, n))
			default:
				r.Recv(0, 0, make([]byte, n))
			}
		}
	}
	// rma has rank 0 put or get n bytes on rank 1's window. Window creation
	// and Free are one barrier each; a 2-rank barrier is one empty message
	// from each rank to the other on the pair's eager channel, so every rank
	// also counts barrierOps zero-byte operations there.
	const barrierOps = 2
	rma := func(n int, put bool) func(r *Rank) {
		return func(r *Rank) {
			win := r.WinCreate(make([]byte, n))
			if r.Rank() == 0 {
				if put {
					win.Put(1, 0, make([]byte, n))
				} else {
					win.Get(1, 0, make([]byte, n))
				}
			}
			win.Free()
		}
	}
	eagerUpTo := func(n int) func(*Options) {
		return func(o *Options) { o.Tunables.SMPEagerSize = n }
	}
	noCMA := func(o *Options) { o.Tunables.UseCMA = false }
	plan := func(p *fault.Plan) func(*Options) {
		return func(o *Options) { o.FaultPlan = p }
	}

	type tc struct {
		name, scenario string
		opts           func(*Options)
		body           func(r *Rank)
		want           [2]profile.ChannelStats
		// shmFell and cmaFell are each rank's SHM→HCA and CMA→SHM fallbacks.
		shmFell, cmaFell [2]uint64
	}
	rndv := 5 * cell / 2
	large := 64 << 10
	cases := []tc{
		{name: "self", scenario: "2cont", body: pair(100, true),
			want: [2]profile.ChannelStats{on(core.ChannelSHM, 1, 100), none}},
		{name: "self-empty", scenario: "2cont", body: pair(0, true),
			want: [2]profile.ChannelStats{on(core.ChannelSHM, 1, 0), none}},
	}
	for _, n := range []int{0, 1, cell - 1, cell, cell + 1} {
		ops := frags(n)
		if ops == 0 {
			ops = 1
		}
		cases = append(cases, tc{name: fmt.Sprintf("shm-eager-%d", n), scenario: "2cont",
			opts: eagerUpTo(4 * cell), body: pair(n, false),
			want: [2]profile.ChannelStats{on(core.ChannelSHM, ops, n), none}})
	}
	cases = append(cases,
		tc{name: "shm-rndv", scenario: "2cont", opts: noCMA, body: pair(rndv, false),
			want: [2]profile.ChannelStats{on(core.ChannelSHM, frags(rndv), rndv), none}},
		tc{name: "cma-rndv", scenario: "2cont", body: pair(large, false),
			want: [2]profile.ChannelStats{none, on(core.ChannelCMA, 1, large)}},
		tc{name: "hca-eager", scenario: "2host", body: pair(64, false),
			want: [2]profile.ChannelStats{on(core.ChannelHCA, 1, 64), none}},
		tc{name: "hca-rndv", scenario: "2host", body: pair(large, false),
			want: [2]profile.ChannelStats{on(core.ChannelHCA, 1, large), none}},
	)
	for _, acc := range []struct {
		name     string
		scenario string
		n        int
		ch       core.Channel
	}{
		{"shm", "2cont", 64, core.ChannelSHM},
		{"cma", "2cont", large, core.ChannelCMA},
		{"hca", "2host", large, core.ChannelHCA},
	} {
		eager := core.ChannelSHM
		if acc.scenario == "2host" {
			eager = core.ChannelHCA
		}
		for _, put := range []bool{true, false} {
			name := "rma-get-" + acc.name
			if put {
				name = "rma-put-" + acc.name
			}
			origin := on(eager, barrierOps, 0)
			origin.Ops[acc.ch]++
			origin.Bytes[acc.ch] += uint64(acc.n)
			cases = append(cases, tc{name: name, scenario: acc.scenario, body: rma(acc.n, put),
				want: [2]profile.ChannelStats{origin, on(eager, barrierOps, 0)}})
		}
	}
	cases = append(cases,
		// The pair's ring cannot be attached: the eager send restarts on the
		// HCA, one post, and counts nothing on SHM.
		tc{name: "ring-attach-fallback", scenario: "2cont",
			opts: plan(fault.NewPlan().ShmAttachFail(0, 0, sim.Second, "cmpi.ring.")),
			body: pair(64, false),
			want: [2]profile.ChannelStats{on(core.ChannelHCA, 1, 64), none}, shmFell: [2]uint64{1, 0}},
		// The receiver's process_vm_readv fails: the sender streams the
		// payload through the ring instead, and the receiver counts no CMA.
		tc{name: "cma-fallback", scenario: "2cont",
			opts: plan(fault.NewPlan().CMAFail(0, 0, sim.Second)),
			body: pair(large, false),
			want: [2]profile.ChannelStats{on(core.ChannelSHM, frags(large), large), none}, cmaFell: [2]uint64{0, 1}},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Profile = true
			if c.opts != nil {
				c.opts(&opts)
			}
			w := testWorld(t, c.scenario, 2, opts)
			if err := w.Run(func(r *Rank) error { c.body(r); return nil }); err != nil {
				t.Fatal(err)
			}
			for i, rp := range w.Prof.Ranks {
				if rp.Channels != c.want[i] {
					t.Errorf("rank %d: channels %+v, want %+v", i, rp.Channels, c.want[i])
				}
				if rp.Faults.ShmFallbacks != c.shmFell[i] || rp.Faults.CMAFallbacks != c.cmaFell[i] {
					t.Errorf("rank %d: shm/cma fallbacks %d/%d, want %d/%d", i,
						rp.Faults.ShmFallbacks, rp.Faults.CMAFallbacks, c.shmFell[i], c.cmaFell[i])
				}
			}
		})
	}
}
