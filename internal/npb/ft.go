package npb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"cmpi/internal/mpi"
)

// ftSize returns (grid edge n, iterations) per class; the grid is n x n
// complex values, row-block partitioned.
func ftSize(c Class) (int, int, error) {
	switch c {
	case ClassS:
		return 128, 4, nil
	case ClassW:
		return 256, 4, nil
	case ClassA:
		return 512, 4, nil
	case ClassB:
		return 1024, 6, nil
	}
	return 0, 0, fmt.Errorf("npb: unknown class %q", string(c))
}

// fft performs an in-place iterative radix-2 FFT (inverse when inv).
func fft(a []complex128, inv bool) {
	n := len(a)
	if n&(n-1) != 0 {
		panic("fft: length not a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if inv {
			ang = -ang
		}
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := a[i+j]
				v := a[i+j+length/2] * w
				a[i+j] = u + v
				a[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	if inv {
		for i := range a {
			a[i] /= complex(float64(n), 0)
		}
	}
}

// RunFT runs the FFT kernel: a 2D FFT performed as row FFTs, a distributed
// transpose (MPI_Alltoall of the full grid), and column FFTs, iterated with
// a spectral "evolve" step. Verification checks Parseval's identity and a
// full inverse round trip back to the initial state.
func RunFT(w *mpi.World, class Class) (Result, error) {
	n, niter, err := ftSize(class)
	if err != nil {
		return Result{}, err
	}
	const seed = 1618033988
	return timeKernel(w, "FT", class, func(r *mpi.Rank) (bool, float64, error) {
		size := r.Size()
		if n%size != 0 {
			return false, 0, fmt.Errorf("npb FT: grid edge %d not divisible by %d ranks", n, size)
		}
		rowsPer := n / size
		base := r.Rank() * rowsPer

		// Initial state: deterministic pseudo-random complex grid.
		grid := make([]complex128, rowsPer*n)
		rng := rand.New(rand.NewSource(0)) // reseeded per row
		for lr := 0; lr < rowsPer; lr++ {
			rng.Seed(seed + int64(base+lr))
			for c := 0; c < n; c++ {
				grid[lr*n+c] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			}
		}
		initial := append([]complex128(nil), grid...)
		energy := func(g []complex128) float64 {
			var s float64
			for _, v := range g {
				s += real(v)*real(v) + imag(v)*imag(v)
			}
			return r.AllreduceFloat64(s, mpi.SumFloat64)
		}
		e0 := energy(grid)

		fftRows := func(g []complex128, inv bool) {
			for lr := 0; lr < rowsPer; lr++ {
				fft(g[lr*n:(lr+1)*n], inv)
			}
			// ~5 n log2 n flops per row.
			r.Compute(5 * float64(rowsPer) * float64(n) * math.Log2(float64(n)))
		}
		// transpose redistributes the grid: destination d receives my rows
		// restricted to its column block, transposed on arrival.
		sendBuf, recvBuf := r.AllocMem(rowsPer*n*16), r.AllocMem(rowsPer*n*16)
		defer r.FreeMem(sendBuf)
		defer r.FreeMem(recvBuf)
		transpose := func(g []complex128) {
			chunk := rowsPer * rowsPer * 16
			for d := 0; d < size; d++ {
				off := d * chunk
				for lr := 0; lr < rowsPer; lr++ {
					for k := 0; k < rowsPer; k++ {
						v := g[lr*n+d*rowsPer+k]
						p := off + (lr*rowsPer+k)*16
						binary.LittleEndian.PutUint64(sendBuf[p:], math.Float64bits(real(v)))
						binary.LittleEndian.PutUint64(sendBuf[p+8:], math.Float64bits(imag(v)))
					}
				}
			}
			r.Compute(float64(rowsPer * n)) // pack
			r.Alltoall(sendBuf, recvBuf, chunk)
			for s := 0; s < size; s++ {
				off := s * chunk
				for lr := 0; lr < rowsPer; lr++ {
					for k := 0; k < rowsPer; k++ {
						p := off + (k*rowsPer+lr)*16
						re := math.Float64frombits(binary.LittleEndian.Uint64(recvBuf[p:]))
						im := math.Float64frombits(binary.LittleEndian.Uint64(recvBuf[p+8:]))
						g[lr*n+s*rowsPer+k] = complex(re, im)
					}
				}
			}
			r.Compute(float64(rowsPer * n)) // unpack
		}

		flops := 0.0
		evolve := func(g []complex128, step int) {
			for lr := 0; lr < rowsPer; lr++ {
				for c := 0; c < n; c++ {
					// Unit-magnitude phase twist keeps energy constant so
					// Parseval stays checkable.
					phase := 2 * math.Pi * float64((base+lr+c)*step%n) / float64(n)
					g[lr*n+c] *= cmplx.Exp(complex(0, phase))
				}
			}
			r.Compute(4 * float64(rowsPer*n))
		}

		steps := 0
		forward := func(g []complex128) {
			fftRows(g, false)
			transpose(g)
			fftRows(g, false)
			steps++
		}
		inverse := func(g []complex128) {
			fftRows(g, true)
			transpose(g)
			fftRows(g, true)
		}

		ok := true
		for it := 1; it <= niter; it++ {
			forward(grid)
			// Parseval: spectral energy = n^2 x spatial energy after the
			// unnormalized forward 2D FFT.
			eSpec := energy(grid)
			if rel := math.Abs(eSpec-e0*float64(n)*float64(n)) / (e0 * float64(n) * float64(n)); rel > 1e-9 {
				ok = false
			}
			evolve(grid, it)
			inverse(grid)
			// Undo the evolve in spectral space so the final state should
			// equal the initial state. Inverse of evolve: conjugate phase.
			forward(grid)
			for lr := 0; lr < rowsPer; lr++ {
				for c := 0; c < n; c++ {
					phase := -2 * math.Pi * float64((base+lr+c)*it%n) / float64(n)
					grid[lr*n+c] *= cmplx.Exp(complex(0, phase))
				}
			}
			inverse(grid)
			flops += 20 * float64(rowsPer) * float64(n) * math.Log2(float64(n))
		}
		// Round-trip error against the initial grid.
		var diff float64
		for i := range grid {
			d := grid[i] - initial[i]
			diff += real(d)*real(d) + imag(d)*imag(d)
		}
		diff = r.AllreduceFloat64(diff, mpi.SumFloat64)
		if diff/e0 > 1e-12 {
			ok = false
		}
		return ok, flops, nil
	})
}
