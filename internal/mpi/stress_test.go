package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cmpi/internal/core"
)

// TestStressRandomizedSchedules drives the full protocol matrix with
// seeded-random but matched communication schedules: mixed message sizes
// (eager/rendezvous on both channel families), tags, nonblocking windows,
// wildcards, and interleaved collectives — across deployment scenarios and
// both modes. Every payload is content-checked.
func TestStressRandomizedSchedules(t *testing.T) {
	scenarios := []string{"native", "4cont", "2host4cont", "isolated"}
	for _, scenario := range scenarios {
		for _, mode := range []core.Mode{core.ModeDefault, core.ModeLocalityAware} {
			for seed := int64(0); seed < 3; seed++ {
				name := fmt.Sprintf("%s/%v/seed%d", scenario, mode, seed)
				t.Run(name, func(t *testing.T) {
					opts := DefaultOptions()
					opts.Mode = mode
					w := testWorld(t, scenario, 8, opts)
					runStressSchedule(t, w, seed)
				})
			}
		}
	}
}

// fill writes a recognizable pattern derived from (src, iter) into buf.
func fill(buf []byte, src, iter int) {
	for i := range buf {
		buf[i] = byte(src*37 + iter*11 + i)
	}
}

func runStressSchedule(t *testing.T, w *World, seed int64) {
	t.Helper()
	const iters = 12
	err := w.Run(func(r *Rank) error {
		// All ranks derive the same schedule from the seed.
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < iters; iter++ {
			shift := 1 + rng.Intn(r.Size()-1)
			sz := 1 << uint(rng.Intn(18)) // 1B .. 128KiB: all protocols
			window := 1 + rng.Intn(4)
			wildcard := rng.Intn(3) == 0

			dst := (r.Rank() + shift) % r.Size()
			src := (r.Rank() - shift + r.Size()) % r.Size()

			var sends, recvs []*Request
			bufs := make([][]byte, window)
			for k := 0; k < window; k++ {
				bufs[k] = make([]byte, sz)
				rsel, tsel := src, iter*8+k
				if wildcard {
					rsel, tsel = AnySource, AnyTag
				}
				recvs = append(recvs, r.Irecv(rsel, tsel, bufs[k]))
			}
			for k := 0; k < window; k++ {
				out := make([]byte, sz)
				fill(out, r.Rank(), iter*8+k)
				sends = append(sends, r.Isend(dst, iter*8+k, out))
			}
			r.WaitAll(append(sends, recvs...)...)
			// With wildcards messages may map to any window slot but they
			// all come from the same src and iteration block; verify by
			// checking each buffer against its matched status tag.
			for k, rq := range recvs {
				st := rq.status
				want := make([]byte, sz)
				fill(want, st.Source, st.Tag)
				if !bytes.Equal(bufs[k], want) {
					return fmt.Errorf("iter %d slot %d: payload mismatch (src=%d tag=%d)", iter, k, st.Source, st.Tag)
				}
			}
			if rng.Intn(2) == 0 {
				if got := r.AllreduceInt64(1, SumInt64); got != int64(r.Size()) {
					return fmt.Errorf("iter %d: allreduce %d", iter, got)
				}
			} else {
				r.Barrier()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStressDeterminismProperty: any seed produces the identical run, by
// World.Digest, across repeated runs.
func TestStressDeterminismProperty(t *testing.T) {
	f := func(seed8 uint8) bool {
		seed := int64(seed8)
		run := func() string {
			w := testWorld(t, "4cont", 8, DefaultOptions())
			runStressSchedule(t, w, seed)
			return w.Digest()
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestManyOutstandingRequests floods a pair with a deep nonblocking window
// crossing the ring budget several times over.
func TestManyOutstandingRequests(t *testing.T) {
	w := testWorld(t, "2cont", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		const n = 256
		const sz = 4096 // 1MiB total in flight vs 128KiB ring budget
		if r.Rank() == 0 {
			reqs := make([]*Request, n)
			for i := range reqs {
				out := make([]byte, sz)
				fill(out, 0, i)
				reqs[i] = r.Isend(1, i, out)
			}
			r.WaitAll(reqs...)
		} else {
			reqs := make([]*Request, n)
			bufs := make([][]byte, n)
			for i := range reqs {
				bufs[i] = make([]byte, sz)
				reqs[i] = r.Irecv(0, i, bufs[i])
			}
			r.WaitAll(reqs...)
			for i := range bufs {
				want := make([]byte, sz)
				fill(want, 0, i)
				if !bytes.Equal(bufs[i], want) {
					return fmt.Errorf("message %d corrupted", i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBidirectionalRendezvousFlood crosses many large messages in both
// directions at once (CMA + ring control traffic under pressure).
func TestBidirectionalRendezvousFlood(t *testing.T) {
	for _, scenario := range []string{"2cont", "2host"} {
		t.Run(scenario, func(t *testing.T) {
			w := testWorld(t, scenario, 2, DefaultOptions())
			err := w.Run(func(r *Rank) error {
				const n = 16
				const sz = 256 * 1024
				peer := 1 - r.Rank()
				var reqs []*Request
				bufs := make([][]byte, n)
				for i := 0; i < n; i++ {
					bufs[i] = make([]byte, sz)
					reqs = append(reqs, r.Irecv(peer, i, bufs[i]))
				}
				for i := 0; i < n; i++ {
					out := make([]byte, sz)
					fill(out, r.Rank(), i)
					reqs = append(reqs, r.Isend(peer, i, out))
				}
				r.WaitAll(reqs...)
				for i := range bufs {
					want := make([]byte, sz)
					fill(want, peer, i)
					if !bytes.Equal(bufs[i], want) {
						return fmt.Errorf("flood message %d corrupted", i)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
