package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"cmpi/internal/ib"
	"cmpi/internal/sim"
)

// Traces pinned across the move from dense per-pair and per-peer tables to
// state created on first contact. The digests below were recorded at the
// commit before that move (77a1b18) at width 1; every width must still
// produce them. An all-to-all contacts every pair of the world, a ring two
// peers per rank: the two ends of how full a rank's peer table gets.

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

func TestTracesUnchangedByFirstContactState(t *testing.T) {
	cases := []struct {
		name    string
		machine bool
		ring    bool
		size    int
		digest  string
	}{
		{"blocking/alltoall-512", false, false, 512, "3dfdb98d874f5c3c9d49548490dc09133a754898327c7a0bee6ae40239e61a34"},
		{"blocking/alltoall-32k", false, false, 32 << 10, "84a8c4613d7f85f8a80aedb69308e40add36f0c63b93020a21a8dd552850c0fe"},
		{"blocking/ring-512", false, true, 512, "97ba5c86d0020bf6aca595654a1c99a0f542564d64d77c16da0abcfd55d50491"},
		{"blocking/ring-64k", false, true, 64 << 10, "dd7111878fdf4037950820bc5169e73626aa3a814f82eaff793612b2860c037c"},
		{"machine/alltoall-512", true, false, 512, "61af3f41987edf6235c2c42155ab546667e2dfd06987469e32308d4e5402a5ab"},
		{"machine/alltoall-32k", true, false, 32 << 10, "608c9bbbc8e6f8cc0550de09384b4e6da54c9fc2d4e45ce63da76e68d73736e9"},
		{"machine/ring-512", true, true, 512, "66827eb2e56794553963598dac1f9d05890dcf707dcb214edde3c7221d74ccd6"},
		{"machine/ring-64k", true, true, 64 << 10, "1535cf2a59d73907575e3b7068df385d738b626ab6263c600fe31549661b186d"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 8} {
				w, buf := machWorld(t, peerTraceRanks, ib.Topology{}, workers)
				var err error
				switch {
				case tc.machine:
					err = w.RunMachine(func(int) Program { return &exchangeProg{ring: tc.ring, size: tc.size} })
				case tc.ring:
					err = w.Run(ringBody(tc.size))
				default:
					err = w.Run(alltoallBody(tc.size))
				}
				if err != nil {
					t.Fatalf("w%d: %v", workers, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != tc.digest {
					t.Errorf("w%d: trace digest %s (%d bytes), want %s", workers, got, buf.Len(), tc.digest)
				}
			}
		})
	}
}

// TestFaultWorldTracePinned watches a fault-plan world's trace. Its records
// flush in commit order like every other world's, so the bytes are pinned at
// every width; and they are the records the engine's former sequential loop
// emitted in dispatch order (testdata/fault-dispatch-order.trace, recorded
// at f967c29) — the move to one dispatch loop reordered them and changed
// none.
func TestFaultWorldTracePinned(t *testing.T) {
	const digest = "4c17939535201376757123926946c01f28653a6ebddab5a9b6e3bc864ea06c4a"
	var stream []byte
	for _, workers := range []int{1, 2, 4, 8} {
		stream, _ = runFaultTracedJob(t, workers)
		sum := sha256.Sum256(stream)
		if got := hex.EncodeToString(sum[:]); got != digest {
			t.Errorf("w%d: trace digest %s (%d bytes), want %s", workers, got, len(stream), digest)
		}
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
	g, w := sorted(stream), sorted(want)
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("record multiset differs from the dispatch-order trace at sorted line %d:\n  got:  %s\n  want: %s", i, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Errorf("%d trace lines, the dispatch-order trace has %d", len(g), len(w))
	}
}

// Traces of the communicator and hierarchical collectives, pinned before
// they became drivers of the steppers in machine.go. The digests were
// recorded at the commit before that move (1700ac2); every width must still
// produce them.

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

func TestCommAndHierTracesPinned(t *testing.T) {
	cases := []struct {
		name   string
		hier   bool
		ranks  int // hier: three hosts, so three leaders fold
		size   int
		digest string
	}{
		{"comm/64", false, 32, 64, "12dfe50509c4408645a42a119f21e92d2e4cc259a53b408989f6ed3bbca3df49"},
		{"comm/8k", false, 32, 8 << 10, "27fc227c4cae362f2a002c77574b62446846fde342fcae78926b0c6b83cf9db4"},
		{"comm/256k", false, 32, 256 << 10, "8994ca0d65612d6c9afe6dbb489917767223388007b9845192edf8e3c0eeb8ca"},
		{"hier/64", true, 48, 64, "016636a8b9dac812ba450f468bbb8d11a2ac1c30ee07f53085d8578dc0c17661"},
		{"hier/8k", true, 48, 8 << 10, "cf4c8e892efa20bd53336f51b0465fd0c090419b457c63ab741e9aeb9fe2e44b"},
		{"hier/256k", true, 48, 256 << 10, "8315611a6bfff7d217c61a402de8b1d093902153bd74f28f1dd35dbb9e8f75a9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 8} {
				opts := DefaultOptions()
				opts.HierarchicalCollectives = tc.hier
				w, buf := machWorldOpts(t, tc.ranks, opts, ib.Topology{}, workers)
				body := commCollBody(tc.size)
				if tc.hier {
					body = hierCollBody(tc.size)
				}
				if err := w.Run(body); err != nil {
					t.Fatalf("w%d: %v", workers, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != tc.digest {
					t.Errorf("w%d: trace digest %s (%d bytes), want %s", workers, got, buf.Len(), tc.digest)
				}
			}
		})
	}
}
