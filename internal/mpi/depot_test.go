package mpi

import (
	"fmt"
	"strings"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/sim"
)

// The process-wide depot behind the pools (core/pool.go), the poolStrict
// hook that audits what a world hands it, and Rank.Release.

// collectiveJob is a 64-rank job's worth of collectives at sizes on both
// sides of every protocol switch.
func collectiveJob(r *Rank) error {
	n := r.Size()
	for _, sz := range []int{16, 1 << 10, 16 << 10} {
		buf := make([]byte, sz)
		r.Bcast(0, buf)
		fillAllreduce(buf, r.Rank(), 0)
		r.Allreduce(buf, SumInt64)
		chunk := min(sz, 1<<10)
		all := make([]byte, chunk*n)
		r.Allgather(buf[:chunk], all)
		r.Alltoall(all, make([]byte, chunk*n), chunk)
	}
	return nil
}

// fresh is the number of pooled byte buffers a world had to allocate: the
// requests neither its own pools nor the depot served.
func fresh(w *World) uint64 {
	c := w.SimStats().BufPool
	return c.Gets - c.Hits - c.Depot
}

// TestDepotServesTheSecondWorld: the same job run twice in one process
// allocates no pooled buffer the second time — everything its pools miss,
// the first world left in the depot. Counted on the pools' own counters, not
// on heap deltas.
func TestDepotServesTheSecondWorld(t *testing.T) {
	t.Run("collectives-64", func(t *testing.T) {
		core.DropDepot()
		cold := collWorld(t, 64, core.ModeLocalityAware)
		if err := cold.Run(collectiveJob); err != nil {
			t.Fatal(err)
		}
		if c := cold.SimStats().BufPool; c.Depot != 0 || fresh(cold) == 0 {
			t.Fatalf("cold world: counters %+v, want an empty depot and some allocation", c)
		}
		warm := collWorld(t, 64, core.ModeLocalityAware)
		if err := warm.Run(collectiveJob); err != nil {
			t.Fatal(err)
		}
		c := warm.SimStats().BufPool
		if fresh(warm) != 0 {
			t.Errorf("second world allocated %d pooled buffers (counters %+v), want 0", fresh(warm), c)
		}
		if c.Depot != fresh(cold) {
			t.Errorf("second world took %d buffers from the depot, the first allocated %d", c.Depot, fresh(cold))
		}
		if cc := cold.SimStats().BufPool; cc.Gets != c.Gets || cc.Hits != c.Hits {
			t.Errorf("own-pool recycling moved: cold %+v, warm %+v", cc, c)
		}
		if cold.MaxBodyTime() != warm.MaxBodyTime() {
			t.Errorf("virtual time %v cold, %v warm", cold.MaxBodyTime(), warm.MaxBodyTime())
		}
	})
	t.Run("machine-1024", func(t *testing.T) {
		if testing.Short() || raceEnabled {
			t.Skip("builds 1024-rank worlds")
		}
		opts := DefaultOptions()
		opts.Topology = peerScaleTopo
		run := func() *World {
			w, err := NewWorld(scaleDeployment(t, 1024), opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.RunMachine(AllreduceProgram(2, 1<<10)); err != nil {
				t.Fatal(err)
			}
			return w
		}
		run() // warm-up
		if w := run(); fresh(w) != 0 {
			t.Errorf("1024-rank world after a warm-up allocated %d pooled buffers (counters %+v), want 0", fresh(w), w.SimStats().BufPool)
		}
	})
}

// windowBody posts windows of Isend/Irecv between ranks 0 and 1, waits, and
// hands the handles back when release is set.
func windowBody(windows, window, size int, release bool) func(r *Rank) error {
	return func(r *Rank) error {
		buf := make([]byte, size)
		reqs := make([]*Request, window)
		for w := 0; w < windows; w++ {
			for i := range reqs {
				if r.Rank() == 0 {
					reqs[i] = r.Isend(1, i, buf)
				} else {
					reqs[i] = r.Irecv(0, i, buf)
				}
			}
			r.WaitAll(reqs...)
			if release {
				r.Release(reqs...)
				for i, req := range reqs {
					if req != nil {
						return fmt.Errorf("window %d: Release left handle %d in the caller's slice", w, i)
					}
				}
			}
		}
		return nil
	}
}

// TestReleaseRecyclesWindowHandles: a window loop that releases its handles
// allocates one window of them; one that does not allocates every handle.
func TestReleaseRecyclesWindowHandles(t *testing.T) {
	const windows, window = 20, 16
	newReqs := func(release bool) uint64 {
		w := testWorld(t, "2cont", 2, DefaultOptions())
		if err := w.Run(windowBody(windows, window, 256, release)); err != nil {
			t.Fatal(err)
		}
		var n uint64
		for _, r := range w.ranks {
			n += r.pools.reqs.ctr.Gets - r.pools.reqs.ctr.Hits
		}
		return n
	}
	held, released := newReqs(false), newReqs(true)
	if held < 2*windows*window {
		t.Fatalf("without Release the two ranks allocated %d handles, want at least %d: the loop no longer holds them", held, 2*windows*window)
	}
	if released > held-2*(windows-1)*window {
		t.Errorf("with Release the two ranks allocated %d handles (%d without), want one window's worth per rank", released, held)
	}
}

// collRounds runs one collective stepper rounds times as a machine Program;
// round i is rooted at rank i%size where the collective has a root.
type collRounds struct {
	kind      string
	rounds, i int
	buf       []byte
	bar       mbarrier
	bc        mbcast
	red       mreduce
	ar        mallreduce
}

func (p *collRounds) Step(r *Rank) sim.Flow {
	for ; p.i < p.rounds; p.i++ {
		g, root := r.group(), p.i%r.size
		var done bool
		switch p.kind {
		case "barrier":
			done = p.bar.step(r, &g)
		case "bcast":
			done = p.bc.step(r, &g, root, p.buf)
		case "reduce":
			done = p.red.step(r, &g, root, p.buf, SumInt64)
		default:
			done = p.ar.step(r, p.buf, SumInt64)
		}
		if !done {
			return sim.More
		}
	}
	return sim.Done
}

// TestStepperRequestsRecycled: every stepper hands each request back when it
// completes, so once a world is warm its request list misses no more — a
// hundred further rounds of any collective, blocking or machine, allocate no
// Request. (The packet, send-op and envelope lists are not held to this: they
// follow how many messages are in flight at once, which a later round may
// raise by a few.) Twelve ranks make recursive doubling and Rabenseifner
// fold; 512 B stays eager on every channel, whose requests are all
// recyclable.
func TestStepperRequestsRecycled(t *testing.T) {
	const ranks, size = 12, 512
	for _, tc := range []struct {
		kind string
		algo core.AllreduceAlgo
	}{
		{"barrier", core.AllreduceAuto},
		{"bcast", core.AllreduceAuto},
		{"reduce", core.AllreduceAuto},
		{"rd", core.AllreduceRecursiveDoubling},
		{"rab", core.AllreduceRabenseifner},
		{"ring", core.AllreduceRing},
		{"tree", core.AllreduceTree},
	} {
		for _, machine := range []bool{false, true} {
			name := tc.kind + "/blocking"
			if machine {
				name = tc.kind + "/machine"
			}
			t.Run(name, func(t *testing.T) {
				misses := func(rounds int) uint64 {
					opts := DefaultOptions()
					opts.Tunables.AllreduceAlgo = tc.algo
					w := testWorld(t, "2host4cont", ranks, opts)
					var err error
					if machine {
						err = w.RunMachine(func(int) Program {
							return &collRounds{kind: tc.kind, rounds: rounds, buf: make([]byte, size)}
						})
					} else {
						err = w.Run(func(r *Rank) error {
							buf := make([]byte, size)
							for i := 0; i < rounds; i++ {
								switch root := i % ranks; tc.kind {
								case "barrier":
									r.Barrier()
								case "bcast":
									r.Bcast(root, buf)
								case "reduce":
									r.Reduce(root, buf, SumInt64)
								default:
									r.Allreduce(buf, SumInt64)
								}
							}
							return nil
						})
					}
					if err != nil {
						t.Fatal(err)
					}
					var n uint64
					for _, r := range w.ranks {
						n += r.pools.reqs.ctr.Gets - r.pools.reqs.ctr.Hits
					}
					return n
				}
				warm, long := misses(10), misses(110)
				if long > warm {
					t.Errorf("the request lists missed %d times in 110 rounds, %d in 10: the steppers' requests are not recycled", long, warm)
				}
			})
		}
	}
}

// TestReleaseOfIncompleteRequestAborts: MPI_Request_free on an active
// request is an error here, not a deferred free.
func TestReleaseOfIncompleteRequestAborts(t *testing.T) {
	w := testWorld(t, "2cont", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			r.Release(nil, r.Irecv(1, 0, make([]byte, 8)))
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "MPI_Request_free") {
		t.Errorf("Release of a pending receive: err = %v, want an MPI_Request_free abort", err)
	}
}

// TestReleasePoisonsHandlesUnderPoolStrict: a handle read after Release is a
// bug that otherwise shows as another operation's state; strict mode makes
// it panic at the read.
func TestReleasePoisonsHandlesUnderPoolStrict(t *testing.T) {
	strictPools(t)
	w := testWorld(t, "2cont", 2, DefaultOptions())
	err := w.Run(func(r *Rank) (err error) {
		buf := make([]byte, 8)
		var req *Request
		if r.Rank() == 0 {
			req = r.Isend(1, 0, buf)
		} else {
			req = r.Irecv(0, 0, buf)
		}
		r.Wait(req)
		if !req.Done() || req.Err() != nil {
			return fmt.Errorf("a waited-for handle reads done=%v err=%v", req.Done(), req.Err())
		}
		r.Release(req)
		for name, read := range map[string]func(){"Done": func() { req.Done() }, "Err": func() { req.Err() }} {
			func() {
				defer func() {
					if recover() == nil {
						err = fmt.Errorf("%s on a released handle did not panic", name)
					}
				}()
				read()
			}()
		}
		return err
	})
	if err != nil {
		t.Error(err)
	}
}

// TestMatchQueue exercises the queue under the matching lists on its own:
// order is kept under removal anywhere, vacated slots are cleared, and a
// queue that never runs empty does not grow.
func TestMatchQueue(t *testing.T) {
	var q matchQ[int]
	vals := make([]int, 64)
	for i := range vals {
		vals[i] = i
	}
	want := func(what string, xs ...int) {
		t.Helper()
		if q.len() != len(xs) {
			t.Fatalf("%s: %d items, want %d", what, q.len(), len(xs))
		}
		for i, x := range q.items() {
			if *x != xs[i] {
				t.Fatalf("%s: item %d is %d, want %d", what, i, *x, xs[i])
			}
		}
	}
	for i := 0; i < 5; i++ {
		q.push(&vals[i])
	}
	q.removeAt(0)
	want("head removed", 1, 2, 3, 4)
	q.removeAt(2)
	want("middle removed", 1, 2, 4)
	q.removeAt(2)
	want("tail removed", 1, 2)
	q.removeAt(0)
	want("head removed again", 2)
	for i, x := range q.buf[:cap(q.buf)] {
		if x != nil && (i < q.head || i >= len(q.buf)) {
			t.Errorf("slot %d outside the queue still points at %d", i, *x)
		}
	}
	q.removeAt(0)
	want("emptied")
	if q.head != 0 || len(q.buf) != 0 {
		t.Errorf("an emptied queue rests at head %d, len %d, want the front", q.head, len(q.buf))
	}
	// A FIFO that always holds three: the head walks, the array must not grow.
	for i := 0; i < 3; i++ {
		q.push(&vals[i])
	}
	grown := cap(q.buf)
	for i := 3; i < 10000; i++ {
		q.push(&vals[i%len(vals)])
		q.removeAt(0)
	}
	if cap(q.buf) > grown+1 {
		t.Errorf("a three-deep FIFO grew its array from %d to %d slots", grown, cap(q.buf))
	}
	want("after 10000 rounds", vals[9997%64], vals[9998%64], vals[9999%64])
}

// TestMatchingOrderAt256Deep pins which receive a message matches when the
// posted queue, and then the unexpected queue, is 256 deep: the first in
// posting (arrival) order whose selectors fit, whether that is the head —
// removed by advancing an index — or an entry in the middle.
func TestMatchingOrderAt256Deep(t *testing.T) {
	const depth = 256
	// sendTags is the order rank 0 sends in; selectors[i] is what rank 1's
	// i-th receive asks for (every fourth takes any tag).
	// The tags no receive names go first, so that the wildcards are spent on
	// them and every later message still finds the receive that names it.
	var sendTags, named []int
	selectors := make([]int, depth)
	for i := range selectors {
		tag := (i*37 + 11) % depth // a permutation: 37 is odd
		selectors[i] = i
		if i%4 == 3 {
			selectors[i] = AnyTag
		}
		if tag%4 == 3 {
			sendTags = append(sendTags, tag)
		} else {
			named = append(named, tag)
		}
	}
	sendTags = append(sendTags, named...)
	// model is the MPI matching rule run on paper: for each message in order,
	// the first open slot that fits.
	model := func(msgs, slots []int, slotFirst bool) []int {
		landed := make([]int, len(slots)) // slot -> tag received
		for i := range landed {
			landed[i] = -1
		}
		if slotFirst {
			// Receives posted one at a time against a full unexpected queue:
			// each takes the oldest message that fits.
			taken := make([]bool, len(msgs))
			for s, sel := range slots {
				for m, tag := range msgs {
					if !taken[m] && (sel == AnyTag || sel == tag) {
						taken[m], landed[s] = true, tag
						break
					}
				}
			}
			return landed
		}
		for _, tag := range msgs {
			for s, sel := range slots {
				if landed[s] < 0 && (sel == AnyTag || sel == tag) {
					landed[s] = tag
					break
				}
			}
		}
		return landed
	}
	for _, unexpectedFirst := range []bool{false, true} {
		name := "posted-queue"
		if unexpectedFirst {
			name = "unexpected-queue"
		}
		t.Run(name, func(t *testing.T) {
			want := model(sendTags, selectors, unexpectedFirst)
			for i, tag := range want {
				if tag < 0 {
					t.Fatalf("the schedule leaves receive %d unmatched: the job would hang", i)
				}
			}
			got := make([]int, depth)
			w := testWorld(t, "2cont", 2, DefaultOptions())
			err := w.Run(func(r *Rank) error {
				if r.Rank() == 0 {
					if !unexpectedFirst {
						r.Barrier() // every receive is posted
					}
					for _, tag := range sendTags {
						r.Send(1, tag, []byte{byte(tag)})
					}
					if unexpectedFirst {
						r.Barrier() // every message was sent
					}
					return nil
				}
				bufs := make([][1]byte, depth)
				reqs := make([]*Request, depth)
				post := func() {
					for i, sel := range selectors {
						reqs[i] = r.Irecv(0, sel, bufs[i][:])
					}
				}
				if unexpectedFirst {
					// The barrier's message follows the others on the same ring.
					r.Barrier()
					if r.unexpected.len() != depth {
						return fmt.Errorf("unexpected queue is %d deep, want %d", r.unexpected.len(), depth)
					}
					post()
				} else {
					post()
					if r.posted.len() != depth {
						return fmt.Errorf("posted queue is %d deep, want %d", r.posted.len(), depth)
					}
					r.Barrier()
				}
				r.WaitAll(reqs...)
				for i, req := range reqs {
					got[i] = req.status.Tag
					if int(bufs[i][0]) != got[i] {
						return fmt.Errorf("receive %d: status says tag %d, payload %d", i, got[i], bufs[i][0])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("receive %d (selector %d) matched tag %d, want %d", i, selectors[i], got[i], want[i])
				}
			}
		})
	}
}
