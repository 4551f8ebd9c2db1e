package mpi

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"cmpi/internal/ib"
	"cmpi/internal/invariant"
	"cmpi/internal/sim"
)

// Traces pinned across the move from dense per-pair and per-peer tables to
// state created on first contact, then across the move of the collectives
// onto the machine.go steppers. The pins are SHA-256s of the recorded v1
// trace (Options.Record), re-recorded once when the engine went back to one
// dispatch queue, which runs every event in strict time order; every row
// must still produce them, and under poolStrict too. An all-to-all contacts
// every pair of the world, a ring two peers per rank: the two ends of how
// full a rank's peer table gets.

const (
	peerTraceRanks  = 32 // two hosts, two containers each
	peerTraceRounds = 3
)

// alltoallBody is the blocking all-to-all.
func alltoallBody(chunk int) func(r *Rank) error {
	return func(r *Rank) error {
		send := make([]byte, chunk*r.Size())
		recv := make([]byte, chunk*r.Size())
		for i := range send {
			send[i] = byte(r.Rank() + i)
		}
		r.Alltoall(send, recv, chunk)
		for src := 0; src < r.Size(); src++ {
			if got, want := recv[src*chunk], byte(src+r.Rank()*chunk); got != want {
				return fmt.Errorf("rank %d: block from %d starts with %d, want %d", r.Rank(), src, got, want)
			}
		}
		return nil
	}
}

// ringBody is the blocking ring: every rank passes a buffer to its right
// neighbour and takes one from its left, a few times over.
func ringBody(size int) func(r *Rank) error {
	return func(r *Rank) error {
		n := r.Size()
		out, in := make([]byte, size), make([]byte, size)
		for round := 0; round < peerTraceRounds; round++ {
			out[0] = byte(r.Rank() + round)
			r.Sendrecv((r.Rank()+1)%n, round, out, (r.Rank()-1+n)%n, round, in)
			if want := byte((r.Rank()-1+n)%n + round); in[0] != want {
				return fmt.Errorf("rank %d round %d: got %d, want %d", r.Rank(), round, in[0], want)
			}
		}
		return nil
	}
}

// exchangeProg is both patterns as a machine-native Program: a sequence of
// sendrecv steps, pairwise (rank^step, all-to-all) or to the right neighbour
// (ring).
type exchangeProg struct {
	ring       bool
	size       int
	send, recv []byte
	step       int
	sr         msr
}

func (g *exchangeProg) Step(r *Rank) sim.Flow {
	n := r.size
	steps := n - 1
	if g.ring {
		steps = peerTraceRounds
	}
	if g.send == nil {
		g.send = make([]byte, g.size*n)
		g.recv = make([]byte, g.size*n)
		g.step = 1
	}
	for g.step <= steps {
		dst, src := r.rank^g.step, r.rank^g.step
		if g.ring {
			dst, src = (r.rank+1)%n, (r.rank-1+n)%n
		}
		if !g.sr.step(r, dst, g.step, g.send[dst*g.size:(dst+1)*g.size], src, g.step, g.recv[src*g.size:(src+1)*g.size], collCtxBit) {
			return sim.More
		}
		g.step++
	}
	return sim.Done
}

// pinnedRow is a row of the pinned-trace tests: its recorded trace must hash
// to pin.
type pinnedRow struct {
	name string
	run  invariant.Run
	pin  string
}

// checkPinned runs each row recorded at base, compares its trace with the pin
// and returns the traces.
func checkPinned(t *testing.T, rows []pinnedRow, base invariant.Point) [][]byte {
	base.Record = true
	var traces [][]byte
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			res := invariant.At(t, tc.run, base)
			if got := invariant.SumBytes(res.Trace); got != tc.pin {
				t.Errorf("trace digest %s (%d bytes), want %s", got, len(res.Trace), tc.pin)
			}
			traces = append(traces, res.Trace)
		})
	}
	return traces
}

// firstContactRows are the all-to-all and ring exchanges, blocking and
// machine, at an eager and a rendezvous size.
func firstContactRows() []pinnedRow {
	var rows []pinnedRow
	for _, tc := range []struct {
		name          string
		machine, ring bool
		size          int
		pin           string
	}{
		{"blocking/alltoall-512", false, false, 512, "38a0db1c315f42b2a69967bfeb4802ccefa71db371ea98cee8e0a95f4cec0e56"},
		{"blocking/alltoall-32k", false, false, 32 << 10, "110cb8125f5e2f55853691f003c76899dd06a5eb257ed2f4336e1054e9101569"},
		{"blocking/ring-512", false, true, 512, "34eecfd29bcc49c69bdf566ae05325ae0bf2a89ad95562f3dd2507f84ddfef45"},
		{"blocking/ring-64k", false, true, 64 << 10, "e728cdb85a592c0ee72b55a6180e9e94d94b45d0465bebac237167640fdc7ab6"},
		{"machine/alltoall-512", true, false, 512, "6601931c5ccda5e0f085717d5aff1c42af849a9f71214a375332b3498b8211c7"},
		{"machine/alltoall-32k", true, false, 32 << 10, "7e9bbe67f84cd01a7daafed25eda36f8088e83b08869bd6ee16ca86110078467"},
		{"machine/ring-512", true, true, 512, "2fdb8a91580d652c8c103f5ae0a23ab27646f1c804aaeb3c4b8b33b0c55b3e41"},
		{"machine/ring-64k", true, true, 64 << 10, "a42967f76188b8258ffeb682deb15bb653bd7940edbab4222056861bb63b1b06"},
	} {
		run := blocking(alltoallBody(tc.size))
		switch {
		case tc.machine:
			run = func(w *World) error {
				return w.RunMachine(func(int) Program { return &exchangeProg{ring: tc.ring, size: tc.size} })
			}
		case tc.ring:
			run = blocking(ringBody(tc.size))
		}
		rows = append(rows, pinnedRow{tc.name, row(machine(peerTraceRanks, ib.Topology{}), DefaultOptions(), run, nil), tc.pin})
	}
	return rows
}

func TestTracesUnchangedByFirstContactState(t *testing.T) {
	checkPinned(t, firstContactRows(), invariant.Point{})
}

// TestFaultWorldTracePinned watches a fault-plan world's trace. Records reach
// the recorder in dispatch order, and the bytes are exactly those the
// engine's first sequential loop recorded for this job
// (testdata/fault-dispatch-order.trace, recorded at f967c29).
func TestFaultWorldTracePinned(t *testing.T) {
	got := checkPinned(t, faultTraceRows(), invariant.Point{})
	if len(got) == 0 {
		return
	}
	want, err := os.ReadFile("testdata/fault-dispatch-order.trace")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], want) {
		t.Error("trace differs from testdata/fault-dispatch-order.trace")
	}
}

// faultTraceRows is the fault-plan world's pinned trace.
func faultTraceRows() []pinnedRow {
	return []pinnedRow{{"fault", faultTraceJob(nil), "b010196cfa8cdc05d27421db026181608e6730150343f7f5e41034ea9240762b"}}
}

// Traces of the communicator and hierarchical collectives, pinned before
// they became drivers of the steppers in machine.go (1700ac2), and of the
// exchange collectives (allgather(v), alltoall, gather/scatter(v),
// reduce-scatter), pinned before they ran over one group function each
// (bfab9f8). The comm rows were re-pinned then: Split's allgather over the
// 32-member world communicator became recursive doubling, and the parent
// with only that change gives the new digests.

// fillRanked writes value v into every int64 element of buf.
func fillRanked(buf []byte, v int64) {
	for i := 0; i+8 <= len(buf); i += 8 {
		le.PutUint64(buf[i:], uint64(v))
	}
}

// checkRanked reports the first int64 element of buf that is not want.
func checkRanked(what string, buf []byte, want int64) error {
	for i := 0; i+8 <= len(buf); i += 8 {
		if got := int64(le.Uint64(buf[i:])); got != want {
			return fmt.Errorf("%s: elem %d is %d, want %d", what, i/8, got, want)
		}
	}
	return nil
}

// collectives is what the world (*Rank) and a communicator (*Comm) both
// offer: every blocking collective they share.
type collectives interface {
	Rank() int
	Size() int
	Barrier()
	Bcast(root int, data []byte)
	Reduce(root int, buf []byte, op ReduceOp)
	Allreduce(buf []byte, op ReduceOp)
	Allgather(mine, out []byte)
	Alltoall(send, recv []byte, chunk int)
	Gather(root int, mine, out []byte)
	Scatter(root int, all, mine []byte)
}

// reductions runs Barrier, Allreduce, Bcast and Reduce over c at size
// bytes (roots other than member 0) and checks each result.
func reductions(c collectives, size int) error {
	n := int64(c.Size())
	buf := make([]byte, size)
	c.Barrier()
	fillRanked(buf, int64(c.Rank()+1))
	c.Allreduce(buf, SumInt64)
	if err := checkRanked("Allreduce", buf, n*(n+1)/2); err != nil {
		return err
	}
	root := c.Size() - 1
	if c.Rank() == root {
		fillRanked(buf, 77)
	}
	c.Bcast(root, buf)
	if err := checkRanked("Bcast", buf, 77); err != nil {
		return err
	}
	fillRanked(buf, int64(c.Rank()+1))
	c.Reduce(1, buf, SumInt64)
	if c.Rank() == 1 {
		return checkRanked("Reduce", buf, n*(n+1)/2)
	}
	return nil
}

// commCollBody runs reductions on the world communicator and then on a
// three-way Split of it (10 or 11 members each at 32 ranks: the
// non-power-of-two fold).
func commCollBody(size int) func(r *Rank) error {
	return func(r *Rank) error {
		world := r.CommWorld()
		if err := reductions(world, size); err != nil {
			return err
		}
		return reductions(world.Split(r.Rank()%3, 0), size)
	}
}

// hierCollBody runs the two-level Allreduce and Bcast (roots that are a
// leader, a plain member, and a member of the last group).
func hierCollBody(size int) func(r *Rank) error {
	return func(r *Rank) error {
		n := int64(r.Size())
		buf := make([]byte, size)
		fillRanked(buf, int64(r.Rank()+1))
		r.Allreduce(buf, SumInt64)
		if err := checkRanked("hierAllreduce", buf, n*(n+1)/2); err != nil {
			return err
		}
		for _, root := range []int{16, 5, r.Size() - 1} {
			fillRanked(buf, int64(r.Rank()))
			r.Bcast(root, buf)
			if err := checkRanked("hierBcast", buf, int64(root)); err != nil {
				return err
			}
		}
		return nil
	}
}

// fillBlock writes block i of a collective's input: every byte names the
// owner and its position, so a misplaced or stale block shows.
func fillBlock(b []byte, owner, i int) {
	for j := range b {
		b[j] = byte(owner*7 + i*3 + j)
	}
}

// checkBlock reports the first byte of b that fillBlock(owner, i) did not
// write.
func checkBlock(what string, b []byte, owner, i int) error {
	for j := range b {
		if want := byte(owner*7 + i*3 + j); b[j] != want {
			return fmt.Errorf("%s: block (%d, %d) byte %d is %d, want %d", what, owner, i, j, b[j], want)
		}
	}
	return nil
}

// exchanges runs Allgather, Alltoall, Gather and Scatter over c with
// blocks of size bytes (non-zero roots) and checks each result.
func exchanges(c collectives, size int) error {
	me, n := c.Rank(), c.Size()
	mine, all := make([]byte, size), make([]byte, size*n)
	send := make([]byte, size*n)
	fillBlock(mine, me, 0)
	for i := 0; i < n; i++ {
		fillBlock(send[i*size:(i+1)*size], me, i)
	}
	c.Allgather(mine, all)
	for i := 0; i < n; i++ {
		if err := checkBlock("Allgather", all[i*size:(i+1)*size], i, 0); err != nil {
			return err
		}
	}
	c.Alltoall(send, all, size)
	for i := 0; i < n; i++ {
		if err := checkBlock("Alltoall", all[i*size:(i+1)*size], i, me); err != nil {
			return err
		}
	}
	root := 1
	c.Gather(root, mine, all)
	if me == root {
		for i := 0; i < n; i++ {
			if err := checkBlock("Gather", all[i*size:(i+1)*size], i, 0); err != nil {
				return err
			}
		}
	}
	root = n - 1
	if me == root {
		for i := 0; i < n; i++ {
			fillBlock(all[i*size:(i+1)*size], root, i)
		}
	}
	c.Scatter(root, all, mine)
	return checkBlock("Scatter", mine, root, me)
}

// via is the collectives of one of the three ways in: the world itself,
// the world communicator, or a three-way Split of it.
func via(r *Rank, api string) collectives {
	switch api {
	case "world-comm":
		return r.CommWorld()
	case "split":
		return r.CommWorld().Split(r.Rank()%3, 0)
	}
	return r
}

// exchangeBody runs exchanges through api.
func exchangeBody(api string) func(size int) func(r *Rank) error {
	return func(size int) func(r *Rank) error {
		return func(r *Rank) error { return exchanges(via(r, api), size) }
	}
}

// vBody runs Allgatherv, Gatherv and Scatterv with counts of 0, size/2 and
// size bytes (every third rank contributes nothing), then
// ReduceScatterBlock.
func vBody(size int) func(r *Rank) error {
	return func(r *Rank) error {
		n := r.Size()
		counts, offs := make([]int, n), make([]int, n+1)
		for i := range counts {
			counts[i] = i % 3 * size / 2
			offs[i+1] = offs[i] + counts[i]
		}
		mine, all := make([]byte, counts[r.Rank()]), make([]byte, offs[n])
		fillBlock(mine, r.Rank(), 0)
		r.Allgatherv(mine, counts, all)
		for i := 0; i < n; i++ {
			if err := checkBlock("Allgatherv", all[offs[i]:offs[i+1]], i, 0); err != nil {
				return err
			}
		}
		clear(all)
		const root = 5
		r.Gatherv(root, mine, counts, all)
		if r.Rank() == root {
			for i := 0; i < n; i++ {
				if err := checkBlock("Gatherv", all[offs[i]:offs[i+1]], i, 0); err != nil {
					return err
				}
			}
		}
		clear(mine)
		r.Scatterv(root, all, counts, mine)
		if err := checkBlock("Scatterv", mine, r.Rank(), 0); err != nil {
			return err
		}
		in, out := make([]byte, size*n), make([]byte, size)
		fillRanked(in, int64(r.Rank()+1))
		r.ReduceScatterBlock(in, out, SumInt64)
		return checkRanked("ReduceScatterBlock", out, int64(n*(n+1)/2))
	}
}

// hierAllgatherBody runs the two-level Allgather.
func hierAllgatherBody(size int) func(r *Rank) error {
	return func(r *Rank) error {
		mine, all := make([]byte, size), make([]byte, size*r.Size())
		fillBlock(mine, r.Rank(), 0)
		r.Allgather(mine, all)
		for i := 0; i < r.Size(); i++ {
			if err := checkBlock("hierAllgather", all[i*size:(i+1)*size], i, 0); err != nil {
				return err
			}
		}
		return nil
	}
}

// collRows are the communicator, hierarchical and exchange collectives at
// an eager and a rendezvous size (and, for the first six, a mid one). The
// world exchange rows run at 12 ranks, where the allgather is the ring and
// the alltoall the shift; the split rows at 18, six members per
// communicator.
func collRows() []pinnedRow {
	var rows []pinnedRow
	for _, tc := range []struct {
		name  string
		hier  bool
		ranks int // hier: three hosts, so three leaders fold
		body  func(size int) func(r *Rank) error
		size  int
		pin   string
	}{
		{"comm/64", false, 32, commCollBody, 64, "965eb6a2112b39ba4b95ebbbc5007abe415516e0c653b080437bc13e834b7d7f"},
		{"comm/8k", false, 32, commCollBody, 8 << 10, "5e7b0febbd088b945648097f2f8b1d4fbca2db5a93c8e2c6bf7e715bf4c8cd91"},
		{"comm/256k", false, 32, commCollBody, 256 << 10, "4d2fe9207487e577ef67f40c131db35e4efeb0423a9f8da5fbf95d0a6bbdc6f9"},
		{"hier/64", true, 48, hierCollBody, 64, "15d9364c16cc01356ecbbcc8a3b18e771ae33605df2d1618ce2cc30a5081e93d"},
		{"hier/8k", true, 48, hierCollBody, 8 << 10, "c91ae669380e5129c975778fa168f38c93d9a88b76e3b7f4ca4ddc922a2da4a8"},
		{"hier/256k", true, 48, hierCollBody, 256 << 10, "8a164fb8dcd937a30a40d9924eb41ebafb0a4855c0435193990b74009a7b7b3b"},
		{"exchange/world/64", false, 12, exchangeBody("rank"), 64, "e808f8a73580663d2b083f339fe11e5c565c07bd2e1b487690c53ee5a0bebe1d"},
		{"exchange/world/64k", false, 12, exchangeBody("rank"), 64 << 10, "bfbf9bffbe6ff736dcbab1e6d41e9b2dba72cb414b1709a2e951ac80b8bdce9c"},
		{"exchange/split/64", false, 18, exchangeBody("split"), 64, "938d036e109861b3a39c09284bdebe7dd41bdf0666aa057a22e9165ec11cbdda"},
		{"exchange/split/64k", false, 18, exchangeBody("split"), 64 << 10, "39b35828c52982429188c643fd4aa3c3a8370c14cb2b0b6405aafd91a785ed99"},
		{"v/64", false, 12, vBody, 64, "aa71a02b380f4a3785ffd59fe819a99af77425792a4358e12b6054b932f9d837"},
		{"v/64k", false, 12, vBody, 64 << 10, "e60a93cced2499df00ad0bc05761411b7c423ba6f7cf3e6ae9b7b7806ba10aa9"},
		{"hier-allgather/64", true, 48, hierAllgatherBody, 64, "7a3fe9dd9036c6c8cdec79f9fcacae6756a72bce452e230d22604ddc02795a34"},
		{"hier-allgather/16k", true, 48, hierAllgatherBody, 16 << 10, "49e9e3e33c4b362759f337e138891518ad6484a1812909b04ac66036125979bd"},
	} {
		opts := DefaultOptions()
		opts.HierarchicalCollectives = tc.hier
		rows = append(rows, pinnedRow{tc.name, row(machine(tc.ranks, ib.Topology{}), opts, blocking(tc.body(tc.size)), nil), tc.pin})
	}
	return rows
}

func TestCommAndHierTracesPinned(t *testing.T) {
	checkPinned(t, collRows(), invariant.Point{})
}
