package npb

import (
	"encoding/binary"
	"fmt"
	"slices"

	"cmpi/internal/mpi"
)

// isSize returns (total keys, key range) per class.
func isSize(c Class) (int64, int64, error) {
	switch c {
	case ClassS:
		return 1 << 16, 1 << 11, nil
	case ClassW:
		return 1 << 18, 1 << 13, nil
	case ClassA:
		return 1 << 20, 1 << 15, nil
	case ClassB:
		return 1 << 22, 1 << 17, nil
	}
	return 0, 0, fmt.Errorf("npb: unknown class %q", string(c))
}

// RunIS runs the integer-sort kernel: uniform keys are generated, bucketed
// by key range across ranks with an alltoallv-style exchange, sorted
// locally, and the global order is verified by boundary exchange plus a
// count reduction.
func RunIS(w *mpi.World, class Class) (Result, error) {
	total, keyRange, err := isSize(class)
	if err != nil {
		return Result{}, err
	}
	const seed = 141421356
	return timeKernel(w, "IS", class, func(r *mpi.Rank) (bool, float64, error) {
		size := int64(r.Size())
		bucketWidth := (keyRange + size - 1) / size

		// Generate keys, chunked for rank-count independence.
		const chunk = 1 << 12
		nChunks := (total + chunk - 1) / chunk
		outs := make([][]byte, size)
		var mine int64
		rng := mpi.NewRand(0) // reseeded per chunk
		for ck := int64(r.Rank()); ck < nChunks; ck += size {
			rng.Seed(seed + ck)
			start, end := ck*chunk, (ck+1)*chunk
			if end > total {
				end = total
			}
			for i := start; i < end; i++ {
				k := rng.Int63n(keyRange)
				d := k / bucketWidth
				var e [4]byte
				binary.LittleEndian.PutUint32(e[:], uint32(k))
				outs[d] = r.AppendMem(outs[d], e[:]...)
			}
			mine += end - start
		}
		mpi.FreeRand(rng)
		r.Compute(3 * float64(mine))

		ins := r.ExchangeV(outs, 3)
		n := 0
		for _, buf := range ins {
			n += len(buf) / 4
		}
		keys := mpi.AllocMemOf[int32](r, n)[:0]
		defer mpi.FreeMemOf(r, keys)
		for _, buf := range ins {
			for off := 0; off+4 <= len(buf); off += 4 {
				keys = append(keys, int32(binary.LittleEndian.Uint32(buf[off:])))
			}
			r.FreeMem(buf)
		}
		slices.Sort(keys)
		nk := float64(len(keys))
		if nk > 0 {
			r.Compute(2 * nk * log2(nk))
		}

		// Verification: local sortedness + bucket bounds + boundary order +
		// global count.
		ok := true
		lo := int32(int64(r.Rank()) * bucketWidth)
		hi := int32((int64(r.Rank()) + 1) * bucketWidth)
		for i, k := range keys {
			if i > 0 && keys[i-1] > k {
				ok = false
			}
			if k < lo || k >= hi {
				ok = false
			}
		}
		// Boundary exchange: my max must not exceed right neighbor's min.
		myMin, myMax := int32(lo), int32(lo)
		if len(keys) > 0 {
			myMin, myMax = keys[0], keys[len(keys)-1]
		}
		if r.Rank() < int(size)-1 {
			r.Send(r.Rank()+1, 4, mpi.EncodeInt64s([]int64{int64(myMax)}))
		}
		if r.Rank() > 0 {
			buf := r.AllocMem(8)
			r.Recv(r.Rank()-1, 4, buf)
			leftMax := mpi.DecodeInt64s(buf)[0]
			r.FreeMem(buf)
			if len(keys) > 0 && leftMax > int64(myMin) {
				ok = false
			}
		}
		totalKeys := r.AllreduceInt64(int64(len(keys)), mpi.SumInt64)
		if totalKeys != total {
			ok = false
		}
		return ok, 5 * float64(mine), nil
	})
}

func log2(x float64) float64 {
	l := 0.0
	for x > 1 {
		x /= 2
		l++
	}
	return l
}
