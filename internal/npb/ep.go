package npb

import (
	"fmt"
	"math"

	"cmpi/internal/mpi"
)

// epPairs returns the total number of uniform pairs per class (scaled from
// the official 2^24..2^30).
func epPairs(c Class) (int64, error) {
	switch c {
	case ClassS:
		return 1 << 16, nil
	case ClassW:
		return 1 << 18, nil
	case ClassA:
		return 1 << 20, nil
	case ClassB:
		return 1 << 22, nil
	}
	return 0, fmt.Errorf("npb: unknown class %q", string(c))
}

// RunEP runs the embarrassingly parallel kernel: generate uniform pairs,
// accept those inside the unit disk, form Gaussian deviates by the
// Box-Muller-style NPB transform, and bin them by max(|X|,|Y|). The only
// communication is the final 10-bin allreduce plus two sum reductions.
func RunEP(w *mpi.World, class Class) (Result, error) {
	total, err := epPairs(class)
	if err != nil {
		return Result{}, err
	}
	const seed = 271828183
	return timeKernel(w, "EP", class, func(r *mpi.Rank) (bool, float64, error) {
		size := int64(r.Size())
		// Chunked generation, identical across rank counts.
		const chunk = 1 << 12
		nChunks := (total + chunk - 1) / chunk
		bins := make([]int64, 10)
		var sx, sy float64
		var accepted, mine int64
		rng := mpi.NewRand(0) // reseeded per chunk
		for ck := int64(r.Rank()); ck < nChunks; ck += size {
			rng.Seed(seed + ck)
			start, end := ck*chunk, (ck+1)*chunk
			if end > total {
				end = total
			}
			for i := start; i < end; i++ {
				x := float64(2*float64(rng.Float64())) - 1
				y := float64(2*float64(rng.Float64())) - 1
				t := float64(x*x) + float64(y*y)
				if t > 1 || t == 0 {
					continue
				}
				f := math.Sqrt(-2 * math.Log(t) / t)
				gx, gy := float64(x*f), float64(y*f)
				accepted++
				sx += gx
				sy += gy
				m := math.Max(math.Abs(gx), math.Abs(gy))
				b := int(m)
				if b > 9 {
					b = 9
				}
				bins[b]++
			}
			mine += end - start
		}
		mpi.FreeRand(rng)
		// ~15 floating point ops per candidate pair.
		r.Compute(15 * float64(mine))

		gBins := mpi.EncodeInt64s(bins)
		r.Allreduce(gBins, mpi.SumInt64)
		gAccepted := r.AllreduceInt64(accepted, mpi.SumInt64)
		gsx := r.AllreduceFloat64(sx, mpi.SumFloat64)
		gsy := r.AllreduceFloat64(sy, mpi.SumFloat64)

		// Verification: bins must partition the accepted pairs; the mean
		// deviate must be near zero; acceptance rate near pi/4.
		var binSum int64
		for _, b := range mpi.DecodeInt64s(gBins) {
			binSum += b
		}
		ok := binSum == gAccepted
		if mean := gsx / float64(gAccepted); math.Abs(mean) > 0.05 {
			ok = false
		}
		if mean := gsy / float64(gAccepted); math.Abs(mean) > 0.05 {
			ok = false
		}
		rate := float64(gAccepted) / float64(total)
		if math.Abs(rate-math.Pi/4) > 0.02 {
			ok = false
		}
		return ok, 15 * float64(mine), nil
	})
}
