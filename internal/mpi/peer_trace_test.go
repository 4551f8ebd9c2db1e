package mpi

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"cmpi/internal/ib"
	"cmpi/internal/invariant"
	"cmpi/internal/sim"
)

// Traces pinned across the move from dense per-pair and per-peer tables to
// state created on first contact, then across the move of the collectives
// onto the machine.go steppers. The pins are SHA-256s of the recorded v1
// trace (Options.Record), produced by the commit before the line-format
// tracer was deleted, whose line digests they replace; every row must still
// produce them, and under poolStrict too. An all-to-all contacts
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
		{"blocking/alltoall-512", false, false, 512, "9fc747ecf8e2f9b80d93ce2dd3c1721f04ee98c6b977c33634494ce09c4eaf1a"},
		{"blocking/alltoall-32k", false, false, 32 << 10, "472b9bc94a4f19f3cbd29313f1c1bc380b9f105131034666bf5afa8984cd1a68"},
		{"blocking/ring-512", false, true, 512, "402756e6766d296a2b08fbebc1ec5dccc4114c305254df00a5b6b8503a0d596d"},
		{"blocking/ring-64k", false, true, 64 << 10, "0415e99bd4d0fb67456394e9cc0710f3c33b6eca76818f0a6aa98c3d19e7fbf5"},
		{"machine/alltoall-512", true, false, 512, "ef96338dac64f291b7a7cdfe36885b45b7a60b69964bf2a9db46ac3bf1a0c315"},
		{"machine/alltoall-32k", true, false, 32 << 10, "67ba1714b13c444285757ed58dd168d148e71a1544630d3bf760d789ae6854e9"},
		{"machine/ring-512", true, true, 512, "44e6449f3136bcd0d5ff3178dd0ecc06edff6c5fe10a0401487e46bdaf4b8c5d"},
		{"machine/ring-64k", true, true, 64 << 10, "ed4406a248024d23d99b719f6128ebd403d945fb2f5c80c19bab9bdcf21e08ed"},
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

// TestFaultWorldTracePinned watches a fault-plan world's trace. Its records
// flush in commit order like every other world's, so the bytes are pinned;
// and they are the records the engine's former sequential loop
// emitted in dispatch order (testdata/fault-dispatch-order.trace, recorded
// at f967c29) — the move to one dispatch loop reordered them and changed
// none.
func TestFaultWorldTracePinned(t *testing.T) {
	got := checkPinned(t, faultTraceRows(), invariant.Point{})
	if len(got) == 0 {
		return
	}
	// The v1 encoding is one canonical line per record after the header line,
	// so sorting the lines compares the record multisets.
	want, err := os.ReadFile("testdata/fault-dispatch-order.trace")
	if err != nil {
		t.Fatal(err)
	}
	sorted := func(b []byte) []string {
		lines := strings.Split(string(b), "\n")
		slices.Sort(lines[1:])
		return lines
	}
	g, w := sorted(got[0]), sorted(want)
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("record multiset differs from the dispatch-order trace at sorted line %d:\n  got:  %s\n  want: %s", i, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Errorf("%d trace lines, the dispatch-order trace has %d", len(g), len(w))
	}
}

// faultTraceRows is the fault-plan world's pinned trace.
func faultTraceRows() []pinnedRow {
	return []pinnedRow{{"fault", faultTraceJob(nil), "4c17939535201376757123926946c01f28653a6ebddab5a9b6e3bc864ea06c4a"}}
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
		{"comm/64", false, 32, commCollBody, 64, "8fe4ef975a32b6bfac3d2775d08a9c677106f67c74a7282bc14f6de2bf0d7b94"},
		{"comm/8k", false, 32, commCollBody, 8 << 10, "0f36b281f690ab72baf740f9c1c1f6a693f0bd8e44c97891a57d2a7d99426c2a"},
		{"comm/256k", false, 32, commCollBody, 256 << 10, "06560135d4929c305af3693ca8938ba1ded598447586fa900299794650dddd72"},
		{"hier/64", true, 48, hierCollBody, 64, "fb41f28a70b2d9e81d892a1245c7e10ec9f881a49861fd882f2fb3fd574c7e15"},
		{"hier/8k", true, 48, hierCollBody, 8 << 10, "2b4d7c6d260755c8d1b5dcf67360dad99b5c1b33b45666a3c9e368eac42877c6"},
		{"hier/256k", true, 48, hierCollBody, 256 << 10, "773bece6790a21680c73fbe308589294323407306d274c47b2f2c6d2388fbe6a"},
		{"exchange/world/64", false, 12, exchangeBody("rank"), 64, "e808f8a73580663d2b083f339fe11e5c565c07bd2e1b487690c53ee5a0bebe1d"},
		{"exchange/world/64k", false, 12, exchangeBody("rank"), 64 << 10, "bfbf9bffbe6ff736dcbab1e6d41e9b2dba72cb414b1709a2e951ac80b8bdce9c"},
		{"exchange/split/64", false, 18, exchangeBody("split"), 64, "aacf6dc5d16d0545dfcaa75cc5d0afec0c75c9312f32553dd536931f67ca9970"},
		{"exchange/split/64k", false, 18, exchangeBody("split"), 64 << 10, "8a33ebc073a57f439e795c60382688919c6db14991c549b56d938b641e883d81"},
		{"v/64", false, 12, vBody, 64, "707c870dfccb5c099c65ad584b6bd1a67a5f31540bd5f756ab6047de1ee2fe8e"},
		{"v/64k", false, 12, vBody, 64 << 10, "e60a93cced2499df00ad0bc05761411b7c423ba6f7cf3e6ae9b7b7806ba10aa9"},
		{"hier-allgather/64", true, 48, hierAllgatherBody, 64, "83fdea5496be9df9f2f752e71160bfc0b17247490b57654336e25f13e08ca2a1"},
		{"hier-allgather/16k", true, 48, hierAllgatherBody, 16 << 10, "4a32f26ff74b5a68e4e206608135109e1efd3c6cfa6679e886b1d1a9f0ddebe9"},
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
