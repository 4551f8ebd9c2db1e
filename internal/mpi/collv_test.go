package mpi

import (
	"bytes"
	"fmt"
	"testing"
)

func TestGathervScattervRoundTrip(t *testing.T) {
	for _, n := range []int{1, 3, 6, 8} {
		w := collWorld(t, n, DefaultOptions().Mode)
		err := w.Run(func(r *Rank) error {
			counts := make([]int, r.Size())
			total := 0
			for i := range counts {
				counts[i] = (i*7)%13 + i // rank 0 may contribute 0 bytes
				total += counts[i]
			}
			mine := make([]byte, counts[r.Rank()])
			for i := range mine {
				mine[i] = byte(r.Rank()*31 + i)
			}
			root := r.Size() / 2
			var all []byte
			if r.Rank() == root {
				all = make([]byte, total)
			}
			r.Gatherv(root, mine, counts, all)
			if r.Rank() == root {
				off := 0
				for src := 0; src < r.Size(); src++ {
					for i := 0; i < counts[src]; i++ {
						if all[off] != byte(src*31+i) {
							return fmt.Errorf("n=%d gatherv block %d byte %d wrong", n, src, i)
						}
						off++
					}
				}
			}
			back := make([]byte, counts[r.Rank()])
			r.Scatterv(root, all, counts, back)
			if !bytes.Equal(back, mine) {
				return fmt.Errorf("n=%d scatterv returned wrong block to %d", n, r.Rank())
			}
			// A zero-count contributor sends nothing, as the root posts no
			// receive for it: by now anything it had sent has arrived.
			r.Barrier()
			if r.Rank() == root && r.unexpected.len() != 0 {
				return fmt.Errorf("n=%d: %d envelopes stranded in the root's unexpected queue", n, r.unexpected.len())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllgatherv(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		w := collWorld(t, n, DefaultOptions().Mode)
		err := w.Run(func(r *Rank) error {
			counts := make([]int, r.Size())
			total := 0
			for i := range counts {
				counts[i] = 4 + i*3
				total += counts[i]
			}
			mine := make([]byte, counts[r.Rank()])
			for i := range mine {
				mine[i] = byte(r.Rank() ^ i)
			}
			out := make([]byte, total)
			r.Allgatherv(mine, counts, out)
			off := 0
			for src := 0; src < r.Size(); src++ {
				for i := 0; i < counts[src]; i++ {
					if out[off] != byte(src^i) {
						return fmt.Errorf("n=%d allgatherv block %d byte %d wrong", n, src, i)
					}
					off++
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestReduceScatterBlock(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		w := collWorld(t, n, DefaultOptions().Mode)
		err := w.Run(func(r *Rank) error {
			// in block j = vector [rank+j, 2*(rank+j)]
			const elems = 2
			in := make([]byte, 0, 8*elems*r.Size())
			for j := 0; j < r.Size(); j++ {
				in = append(in, EncodeInt64s([]int64{int64(r.Rank() + j), 2 * int64(r.Rank()+j)})...)
			}
			out := make([]byte, 8*elems)
			r.ReduceScatterBlock(in, out, SumInt64)
			got := DecodeInt64s(out)
			// sum over ranks s of (s + myrank) = S + n*myrank, S = n(n-1)/2
			s := int64(r.Size() * (r.Size() - 1) / 2)
			want := s + int64(r.Size()*r.Rank())
			if got[0] != want || got[1] != 2*want {
				return fmt.Errorf("n=%d rank %d: reduce_scatter got %v want [%d %d]", n, r.Rank(), got, want, 2*want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
