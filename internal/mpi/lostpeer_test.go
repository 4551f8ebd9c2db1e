package mpi

import (
	"errors"
	"fmt"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/invariant"
	"cmpi/internal/sim"
)

// The lost-peer matrix: rank 0 loses rank 1 while it has one operation in
// flight toward it, and each cell pins what that operation ends with — the
// error type, the virtual time rank 0 sees it complete, to the picosecond,
// and the world's digest. The peer is lost one of two ways at lossAt:
//   - chan: every transmission from rank 1's host drops from lossAt on, so
//     the HCA connection exhausts its retries; ErrorsReturn.
//   - crash: rank 1 dies at lossAt (RankCrash).
//
// Rank 1 sets up its side of the cell, then loses itself: under chan it
// sends one eager message after lossAt, whose drops break the connection,
// and returns the error its own receive from rank 0 fails with; under crash
// it computes until it dies.
const (
	lossAt   = 100 * sim.Microsecond
	tagData  = 5 // the cell's own message
	tagLoss  = 9 // a receive that fails at the loss (awaitLoss)
	tagBreak = 8 // rank 1's message that breaks the channel
)

// lossKind is how the matrix loses rank 1.
type lossKind struct {
	name     string
	scenario string
	set      func(*Options)
}

var (
	lossChan2Host = lossKind{"chan-2host", "2host", func(o *Options) {
		o.ErrHandler = ErrorsReturn
		o.Tunables.RetryCount = 2
		o.Tunables.RetryTimeout = core.RetryTimeoutFromExponent(0)
		o.FaultPlan = fault.NewPlan().SendDrops(1, lossAt, 0, 1000)
	}}
	lossCrash2Host = lossKind{"crash-2host", "2host", func(o *Options) {
		o.ErrHandler = ErrorsReturn
		o.FaultPlan = fault.NewPlan().RankCrash(1, lossAt)
	}}
	// On one container the ring holds one eager message's worth of bytes,
	// so a message of one byte less than the eager size — two cells plus
	// their headers — stalls its sender after the first fragment.
	lossCrash1Cont = lossKind{"crash-1cont", "1cont", func(o *Options) {
		o.ErrHandler = ErrorsReturn
		o.Tunables.SMPEagerSize, o.Tunables.SMPLengthQueue = 16<<10, 16<<10
		o.FaultPlan = fault.NewPlan().RankCrash(1, lossAt)
	}}
)

// loseSelf is rank 1's last act in every cell.
func loseSelf(r *Rank, k lossKind) error {
	if k.name == lossChan2Host.name {
		for r.Now() < lossAt {
			r.Compute(1000)
		}
		r.Send(0, tagBreak, make([]byte, 64))
		req := r.Irecv(0, tagLoss, make([]byte, 8))
		r.Wait(req)
		return req.Err()
	}
	for r.Now() < 2*lossAt {
		r.Compute(1000)
	}
	return fmt.Errorf("rank 1 outlived its crash at %v", lossAt)
}

// awaitLoss blocks rank 0 until it has observed the loss of rank 1: a named
// receive nothing ever matches fails then.
func awaitLoss(t *testing.T, r *Rank) {
	req := r.Irecv(1, tagLoss, make([]byte, 8))
	r.Wait(req)
	if req.Err() == nil {
		t.Error("a receive from the lost peer completed without error")
	}
}

// lostPeerCell is what one cell's rank 0 ended with.
type lostPeerCell struct {
	err    string   // the pinned request's error type, "<nil>" for none
	doneAt sim.Time // rank 0's clock when the request completed
	digest string   // World.Digest
}

func TestLostPeerMatrix(t *testing.T) {
	const rndv = 64 << 10
	const streamed = 16<<10 - 1 // eager on crash-1cont, two ring cells
	type cell struct {
		loss lossKind
		op   string
		want lostPeerCell
	}
	// Each op is rank 0's operation toward rank 1 (which returns it) and
	// what rank 1 does before it is lost.
	ops := map[string]struct {
		survivor func(t *testing.T, r *Rank) *Request
		peer     func(r *Rank)
	}{
		"named-irecv": {survivor: func(t *testing.T, r *Rank) *Request {
			return r.Irecv(1, tagData, make([]byte, 64))
		}},
		// A wildcard receive fails with a crash (rank 1 could have been its
		// match) and survives a broken channel: rank 0's own message
		// completes it after the loss.
		"anysource-irecv": {survivor: func(t *testing.T, r *Rank) *Request {
			req := r.Irecv(AnySource, tagData, make([]byte, 64))
			awaitLoss(t, r)
			r.Send(0, tagData, make([]byte, 64))
			return req
		}},
		"hca-rndv-send-awaiting-cts": {survivor: func(t *testing.T, r *Rank) *Request {
			return r.Isend(1, tagData, make([]byte, rndv))
		}},
		"hca-rndv-recv-awaiting-write": {
			survivor: func(t *testing.T, r *Rank) *Request {
				return r.Irecv(1, tagData, make([]byte, rndv))
			},
			peer: func(r *Rank) { r.Isend(0, tagData, make([]byte, rndv)) },
		},
		// Rank 0 computes while rank 1 pushes the first fragment and stalls
		// on the second, then drains the first into its receive.
		"shm-eager-mid-stream": {
			survivor: func(t *testing.T, r *Rank) *Request {
				for r.Now() < lossAt*3/4 {
					r.Compute(100)
				}
				return r.Irecv(1, tagData, make([]byte, streamed))
			},
			peer: func(r *Rank) { r.Isend(0, tagData, make([]byte, streamed)) },
		},
		"ring-send-queued": {survivor: func(t *testing.T, r *Rank) *Request {
			return r.Isend(1, tagData, make([]byte, streamed))
		}},
		// The op's data is the borrowed user buffer: failing the op must
		// hand it back untouched, never to a pool.
		"cma-send-awaiting-fin": {survivor: func(t *testing.T, r *Rank) *Request {
			buf := make([]byte, rndv, rndv+64)
			fill(buf, 0, 5)
			req := r.Isend(1, tagData, buf)
			r.Wait(req)
			checkPattern(t, "buffer of the failed CMA send", buf, 5)
			return req
		}},
		// Rank 1's RTS arrives unexpected; once rank 1 is lost, a receive
		// for it fails instead of reading from the dead sender.
		"unexpected-rts-incomplete": {
			survivor: func(t *testing.T, r *Rank) *Request {
				awaitLoss(t, r)
				return r.Irecv(1, tagData, make([]byte, rndv))
			},
			peer: func(r *Rank) { r.Isend(0, tagData, make([]byte, rndv)) },
		},
		// A message wholly in rank 0's memory before the loss stays
		// receivable.
		"unexpected-complete": {
			survivor: func(t *testing.T, r *Rank) *Request {
				awaitLoss(t, r)
				buf := make([]byte, 64)
				req := r.Irecv(1, tagData, buf)
				r.Wait(req)
				checkPattern(t, "message received after the loss", buf, 3)
				return req
			},
			peer: func(r *Rank) {
				buf := make([]byte, 64)
				fill(buf, 0, 3)
				r.Send(0, tagData, buf)
			},
		},
		"isend-after-loss": {survivor: func(t *testing.T, r *Rank) *Request {
			awaitLoss(t, r)
			return r.Isend(1, tagData, make([]byte, 64))
		}},
		"irecv-after-loss": {survivor: func(t *testing.T, r *Rank) *Request {
			awaitLoss(t, r)
			return r.Irecv(1, tagData, make([]byte, 64))
		}},
		// Past the crash without a wait: rank 0 has not swept its operations
		// toward rank 1 yet, and a new send still fails.
		"isend-after-crash-unswept": {survivor: func(t *testing.T, r *Rank) *Request {
			for !r.Failed() {
				r.Compute(100)
			}
			return r.Isend(1, tagData, make([]byte, 64))
		}},
	}
	cells := []cell{
		{lossChan2Host, "named-irecv", lostPeerCell{"*mpi.ChannelError", 158998818, "728c435f13cbcef58ca969bf7c3c86c8a169c149b9845e4fc43bf917b3a8f264"}},
		{lossChan2Host, "anysource-irecv", lostPeerCell{"<nil>", 159110454, "0462707f70bc0e5b966d6299b5c772a53c3de899dafc55a9511729f1de47aec1"}},
		{lossChan2Host, "hca-rndv-send-awaiting-cts", lostPeerCell{"*mpi.ChannelError", 128998818, "b019e47dc98b09a3acc02667941e3ed618f162f2233e0906acffa1102be05096"}},
		{lossChan2Host, "hca-rndv-recv-awaiting-write", lostPeerCell{"*mpi.ChannelError", 135790818, "f673fee22c50c8cd5b426e3a4f603064aa707ad2c92a919ddde86434edfbbdab"}},
		{lossChan2Host, "unexpected-complete", lostPeerCell{"<nil>", 135260454, "21c353ff0e776648027917a05c4ea4a16ba191a3b2de589739c03a8d9af9044b"}},
		{lossChan2Host, "isend-after-loss", lostPeerCell{"*mpi.ChannelError", 158998818, "87aad32d5be009b6ea093311cf4ceacc4b5a7e56a2d36d17f9cde556365eaced"}},
		{lossChan2Host, "irecv-after-loss", lostPeerCell{"*mpi.ChannelError", 158998818, "87aad32d5be009b6ea093311cf4ceacc4b5a7e56a2d36d17f9cde556365eaced"}},

		{lossCrash2Host, "named-irecv", lostPeerCell{"*mpi.ProcFailedError", 100021000, "4e94dea97eaaeab117019541eebf1708104d2cc843d3e0dd8a1604beee7aab11"}},
		{lossCrash2Host, "anysource-irecv", lostPeerCell{"*mpi.ProcFailedError", 100076818, "7a46fab8dd3e6f790d1f94b4563ec55ca9b3100f6bac0ac244b970737de0a91a"}},
		{lossCrash2Host, "hca-rndv-send-awaiting-cts", lostPeerCell{"*mpi.ProcFailedError", 100021000, "3e8c2015ec3e9cca5106632a0151ff3db86bc1c6475285b54c3d508550229604"}},
		{lossCrash2Host, "hca-rndv-recv-awaiting-write", lostPeerCell{"*mpi.ProcFailedError", 106813000, "5c8953391f08a95d6ab2a349dd6c1e99ea98cd599b9dd5208ad175a6c68d2460"}},
		{lossCrash2Host, "unexpected-complete", lostPeerCell{"<nil>", 106282636, "4ef40c17639832a918429f4f1b76cdabbefe4310914d421106c660c181d19942"}},
		{lossCrash2Host, "isend-after-loss", lostPeerCell{"*mpi.ProcFailedError", 100021000, "377c4efd98d086631ff09badc8faf13dc9c95661ed55fa39500fa90e4620610a"}},
		{lossCrash2Host, "irecv-after-loss", lostPeerCell{"*mpi.ProcFailedError", 100021000, "377c4efd98d086631ff09badc8faf13dc9c95661ed55fa39500fa90e4620610a"}},
		{lossCrash2Host, "isend-after-crash-unswept", lostPeerCell{"*mpi.ProcFailedError", 100021000, "a01661252c900b126c2e03fcdb190186d45ccfa3fb677dfebf2ea3390b03aff7"}},

		{lossCrash1Cont, "named-irecv", lostPeerCell{"*mpi.ProcFailedError", 100021000, "4e94dea97eaaeab117019541eebf1708104d2cc843d3e0dd8a1604beee7aab11"}},
		{lossCrash1Cont, "anysource-irecv", lostPeerCell{"*mpi.ProcFailedError", 100076818, "7a46fab8dd3e6f790d1f94b4563ec55ca9b3100f6bac0ac244b970737de0a91a"}},
		{lossCrash1Cont, "shm-eager-mid-stream", lostPeerCell{"*mpi.ProcFailedError", 103810363, "5323bef8411149e4c4ee9671a11fb8ee20f3ee5eb9b82fb12e22f57bf7342ed3"}},
		{lossCrash1Cont, "ring-send-queued", lostPeerCell{"*mpi.ProcFailedError", 100021000, "31f37ce04cfd60644294ef3f5884a87b8d9796ff1c7cdb1271b4f4d9a441e8b5"}},
		{lossCrash1Cont, "cma-send-awaiting-fin", lostPeerCell{"*mpi.ProcFailedError", 100021000, "d0c5751eb49b3754771573e1816086d6349e46fee2111b4571378f6a9c6708ce"}},
		{lossCrash1Cont, "unexpected-rts-incomplete", lostPeerCell{"*mpi.ProcFailedError", 102101000, "61ef8e9ebfc760dced5728be168f439af6458c03a4de07cc19d21b1ed2b72cbf"}},
		{lossCrash1Cont, "unexpected-complete", lostPeerCell{"<nil>", 102232636, "0cfdcb0111686189b6d001365195a65aa2ac0dececaba3885c4dcf53215998c3"}},
		{lossCrash1Cont, "isend-after-loss", lostPeerCell{"*mpi.ProcFailedError", 100021000, "377c4efd98d086631ff09badc8faf13dc9c95661ed55fa39500fa90e4620610a"}},
		{lossCrash1Cont, "irecv-after-loss", lostPeerCell{"*mpi.ProcFailedError", 100021000, "377c4efd98d086631ff09badc8faf13dc9c95661ed55fa39500fa90e4620610a"}},
		{lossCrash1Cont, "isend-after-crash-unswept", lostPeerCell{"*mpi.ProcFailedError", 100021000, "a01661252c900b126c2e03fcdb190186d45ccfa3fb677dfebf2ea3390b03aff7"}},
	}
	for _, c := range cells {
		op := ops[c.op]
		t.Run(c.loss.name+"/"+c.op, func(t *testing.T) {
			run := func(t *testing.T, p invariant.Point) invariant.Result {
				opts := DefaultOptions()
				c.loss.set(&opts)
				w := testWorld(t, c.loss.scenario, 2, opts)
				var got lostPeerCell
				err := w.Run(func(r *Rank) error {
					if r.Rank() == 1 {
						if op.peer != nil {
							op.peer(r)
						}
						return loseSelf(r, c.loss)
					}
					req := op.survivor(t, r)
					r.Wait(req)
					got.err, got.doneAt = fmt.Sprintf("%T", req.Err()), r.Now()
					var pe *ProcFailedError
					var ce *ChannelError
					switch {
					case errors.As(req.Err(), &pe) && pe.Peer != 1,
						errors.As(req.Err(), &ce) && ce.Peer != 1:
						t.Errorf("%v names the wrong peer", req.Err())
					}
					return nil
				})
				var crash *CrashError
				var broken *ChannelError
				if c.loss.name == lossChan2Host.name {
					if !errors.As(err, &broken) || broken.Peer != 0 {
						t.Errorf("Run: %v, want rank 1's ChannelError toward rank 0", err)
					}
				} else if !errors.As(err, &crash) || crash.Rank != 1 {
					t.Errorf("Run: %v, want rank 1's CrashError", err)
				}
				got.digest = w.Digest()
				if got != c.want {
					t.Errorf("%+v: got %#v, want %#v", p, got, c.want)
				}
				return invariant.Result{Digest: got.digest}
			}
			invariant.Check(t, run, invariant.Point{},
				invariant.Point{PoolStrict: true}, invariant.Point{DropDepot: true})
		})
	}
}

// TestRndvRecycledSendSurvivesLostPeer holds the rendezvous table to letting
// go of a send at the sender's RDMA write completion. Rank 0 sends rank 1 an
// HCA rendezvous message; rank 1 grants it and then computes, so the
// WRITE_IMM completion waits in its CQ and the pair's table keeps the entry.
// Rank 0's send completes meanwhile and is released, and the recycled handle
// carries a CMA send to co-resident rank 2, who receives it only after rank
// 0's transmissions to rank 1 have broken the channel. Losing rank 1 must
// not fail that send: had the table kept naming the handle, rank 0's
// losePeer would fail another operation.
func TestRndvRecycledSendSurvivesLostPeer(t *testing.T) {
	const rndv = 64 << 10
	run := func(t *testing.T, p invariant.Point) invariant.Result {
		c := cluster.MustNew(cluster.Spec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
		d := &cluster.Deployment{Scenario: "Native", Cluster: c, Placements: []cluster.Placement{
			{Rank: 0, Env: c.Host(0).NativeEnv(), Core: 0},
			{Rank: 1, Env: c.Host(1).NativeEnv(), Core: 0},
			{Rank: 2, Env: c.Host(0).NativeEnv(), Core: 1},
		}}
		opts := DefaultOptions()
		opts.ErrHandler = ErrorsReturn
		opts.Tunables.RetryCount = 2
		opts.Tunables.RetryTimeout = core.RetryTimeoutFromExponent(0)
		opts.FaultPlan = fault.NewPlan().SendDrops(0, lossAt, 0, 1000)
		w, err := NewWorld(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(r *Rank) error {
			buf := make([]byte, rndv)
			switch r.Rank() {
			case 0:
				fill(buf, 0, 1)
				first := r.Isend(1, tagData, buf)
				r.Wait(first)
				if first.Err() != nil {
					return first.Err()
				}
				r.Release(first)
				next := r.Isend(2, tagData, buf)
				if !p.PoolStrict && next != first {
					t.Error("the send to rank 2 did not reuse the released rendezvous send's handle")
				}
				for r.Now() < lossAt {
					r.Compute(1000)
				}
				r.Send(1, tagBreak, make([]byte, 64))
				awaitLoss(t, r)
				r.Wait(next)
				return next.Err()
			case 1:
				req := r.Irecv(0, tagData, buf)
				granted := func() bool {
					for _, st := range r.peer(0).ps.rndv {
						if st.rreq == req {
							return true
						}
					}
					return false
				}
				for !granted() {
					if _, done := r.Test(req); done {
						t.Error("rank 1's receive completed while it was still granting it")
					}
				}
				for r.Now() < 3*lossAt {
					r.Compute(1000)
				}
				r.Wait(req)
				checkPattern(t, "rank 1's rendezvous receive", buf, 1)
				return req.Err()
			default:
				for r.Now() < 2*lossAt {
					r.Compute(1000)
				}
				r.Recv(0, tagData, buf)
				checkPattern(t, "rank 2's receive through the recycled handle", buf, 1)
				return nil
			}
		})
		if err != nil {
			t.Errorf("Run: %v", err)
		}
		return invariant.Result{Digest: w.Digest()}
	}
	invariant.Check(t, run, invariant.Point{},
		invariant.Point{PoolStrict: true}, invariant.Point{DropDepot: true})
}
