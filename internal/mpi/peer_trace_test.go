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
// produce them at every width and under poolStrict. An all-to-all contacts
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

// checkPinned runs each row recorded at base and at widths 2/4/8 of it,
// compares the base's trace with the pin (the harness holds every other point
// to the base) and returns the base traces.
func checkPinned(t *testing.T, rows []pinnedRow, base invariant.Point) [][]byte {
	base.Record = true
	var traces [][]byte
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			res := invariant.Check(t, tc.run, base, invariant.Widths(base, 2, 4, 8)...)
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
// flush in commit order like every other world's, so the bytes are pinned at
// every width; and they are the records the engine's former sequential loop
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
// they became drivers of the steppers in machine.go (1700ac2).

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

// commCollBody runs Barrier, Allreduce, Bcast and Reduce on the world
// communicator and then on a three-way Split of it (10 or 11 members each at
// 32 ranks: the non-power-of-two fold, roots other than member 0).
func commCollBody(size int) func(r *Rank) error {
	return func(r *Rank) error {
		world := r.CommWorld()
		for _, split := range []bool{false, true} {
			c := world
			if split {
				c = world.Split(r.Rank()%3, 0)
			}
			n := int64(c.Size())
			buf := make([]byte, size)
			c.Barrier()
			fillRanked(buf, int64(c.Rank()+1))
			c.Allreduce(buf, SumInt64)
			if err := checkRanked("Comm.Allreduce", buf, n*(n+1)/2); err != nil {
				return err
			}
			root := c.Size() - 1
			if c.Rank() == root {
				fillRanked(buf, 77)
			}
			c.Bcast(root, buf)
			if err := checkRanked("Comm.Bcast", buf, 77); err != nil {
				return err
			}
			fillRanked(buf, int64(c.Rank()+1))
			c.Reduce(1, buf, SumInt64)
			if c.Rank() == 1 {
				if err := checkRanked("Comm.Reduce", buf, n*(n+1)/2); err != nil {
					return err
				}
			}
		}
		return nil
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

// collRows are the communicator and hierarchical collectives at an eager,
// a mid and a rendezvous size.
func collRows() []pinnedRow {
	var rows []pinnedRow
	for _, tc := range []struct {
		name  string
		hier  bool
		ranks int // hier: three hosts, so three leaders fold
		size  int
		pin   string
	}{
		{"comm/64", false, 32, 64, "b65a36c545c50504cacb86d0c7482d3f57f4298a06e237c8d8fbd0c4f8c09f5c"},
		{"comm/8k", false, 32, 8 << 10, "0da2d68c5d896703c6e0f72c72c5435e4b96e4c0da2f95ded3f1d95ac40b46d4"},
		{"comm/256k", false, 32, 256 << 10, "425b787a492657d770f612ceec4a87acf1f212b05c0fe4cc4f0a876d73b77676"},
		{"hier/64", true, 48, 64, "fb41f28a70b2d9e81d892a1245c7e10ec9f881a49861fd882f2fb3fd574c7e15"},
		{"hier/8k", true, 48, 8 << 10, "2b4d7c6d260755c8d1b5dcf67360dad99b5c1b33b45666a3c9e368eac42877c6"},
		{"hier/256k", true, 48, 256 << 10, "773bece6790a21680c73fbe308589294323407306d274c47b2f2c6d2388fbe6a"},
	} {
		opts := DefaultOptions()
		opts.HierarchicalCollectives = tc.hier
		body := commCollBody(tc.size)
		if tc.hier {
			body = hierCollBody(tc.size)
		}
		rows = append(rows, pinnedRow{tc.name, row(machine(tc.ranks, ib.Topology{}), opts, blocking(body), nil), tc.pin})
	}
	return rows
}

func TestCommAndHierTracesPinned(t *testing.T) {
	checkPinned(t, collRows(), invariant.Point{})
}
