package npb

import (
	"encoding/binary"
	"fmt"
	"math"

	"cmpi/internal/mpi"
)

// cgSize returns (n, nonzeros-per-row-half, iterations) per class.
func cgSize(c Class) (int, int, int, error) {
	switch c {
	case ClassS:
		return 1400, 7, 15, nil
	case ClassW:
		return 7000, 8, 15, nil
	case ClassA:
		return 14000, 11, 15, nil
	case ClassB:
		return 28000, 13, 25, nil
	}
	return 0, 0, 0, fmt.Errorf("npb: unknown class %q", string(c))
}

// RunCG runs a conjugate-gradient solve on a random sparse symmetric
// diagonally-dominant matrix, 1D row-block partitioned. Each iteration
// costs one allgather of the search direction (size n) and two scalar
// allreduces — the pattern that makes NPB CG communication-bound and gives
// the paper its 11% application-level win.
func RunCG(w *mpi.World, class Class) (Result, error) {
	n, nzHalf, niter, err := cgSize(class)
	if err != nil {
		return Result{}, err
	}
	const seed = 314159265
	return timeKernel(w, "CG", class, func(r *mpi.Rank) (bool, float64, error) {
		size := r.Size()
		perRank := (n + size - 1) / size
		base := r.Rank() * perRank
		ownedN := perRank
		if base+ownedN > n {
			ownedN = n - base
		}
		if ownedN < 0 {
			ownedN = 0
		}
		owner := func(row int) int { return row / perRank }

		// --- Matrix assembly: A = L + L^T + D, strictly lower-triangular L
		// generated per-row (rank-count independent), D makes A diagonally
		// dominant. Entries are exchanged so each rank holds full rows of
		// its block.
		blocks := mpi.NewBlocks(size)
		defer mpi.FreeBlocks(blocks)
		push := func(row, col int, val float64) {
			var e [16]byte
			binary.LittleEndian.PutUint32(e[0:], uint32(row))
			binary.LittleEndian.PutUint32(e[4:], uint32(col))
			binary.LittleEndian.PutUint64(e[8:], math.Float64bits(val))
			d := owner(row)
			blocks[d] = r.AppendMem(blocks[d], e[:]...)
		}
		rng := mpi.NewRand(0) // reseeded per row
		for row := base; row < base+ownedN; row++ {
			rng.Seed(seed + int64(row))
			for k := 0; k < nzHalf && row > 0; k++ {
				col := rng.Intn(row)
				val := rng.Float64()
				push(row, col, val)
				push(col, row, val)
			}
		}
		mpi.FreeRand(rng)
		r.Compute(float64(ownedN * nzHalf * 4))

		r.ExchangeV(blocks, 2)

		// Rows in CSR form: row li's entries are cols/vals[off[li]:off[li+1]],
		// filled in arrival order (every sum below adds in that order). The
		// counts go in off[li+1] and sum to each row's start; the fill
		// advances off[li] to its row's end, and one shift puts the starts
		// back.
		off := mpi.AllocMemOf[int](r, ownedN+1)
		defer mpi.FreeMemOf(r, off)
		clear(off)
		var nnz int
		for _, buf := range blocks {
			for o := 0; o+16 <= len(buf); o += 16 {
				off[int(binary.LittleEndian.Uint32(buf[o:]))-base+1]++
				nnz++
			}
		}
		for li := 0; li < ownedN; li++ {
			off[li+1] += off[li]
		}
		cols, vals := mpi.AllocMemOf[int32](r, nnz), mpi.AllocMemOf[float64](r, nnz)
		defer mpi.FreeMemOf(r, cols)
		defer mpi.FreeMemOf(r, vals)
		diag := mpi.AllocMemOf[float64](r, ownedN)
		defer mpi.FreeMemOf(r, diag)
		clear(diag)
		for _, buf := range blocks {
			for o := 0; o+16 <= len(buf); o += 16 {
				li := int(binary.LittleEndian.Uint32(buf[o:])) - base
				val := math.Float64frombits(binary.LittleEndian.Uint64(buf[o+8:]))
				k := off[li]
				cols[k], vals[k] = int32(binary.LittleEndian.Uint32(buf[o+4:])), val
				off[li]++
				diag[li] += val
			}
			r.FreeMem(buf)
		}
		if ownedN > 0 {
			copy(off[1:], off[:ownedN])
			off[0] = 0
		}
		for i := range diag {
			diag[i] += 1.0 // strict dominance => positive definite
		}
		// rowTimes is row i of A times the vector x, allgathered as x[col]
		// at xAll[8*col:]; xi is x[base+i].
		rowTimes := func(i int, xi float64, xAll []byte) float64 {
			s := diag[i] * xi
			for k := off[i]; k < off[i+1]; k++ {
				s += float64(vals[k] * math.Float64frombits(binary.LittleEndian.Uint64(xAll[8*int(cols[k]):])))
			}
			return s
		}

		// --- CG solve of A z = b with b = ones.
		z := mpi.AllocMemOf[float64](r, ownedN)
		res := mpi.AllocMemOf[float64](r, ownedN) // residual
		p := mpi.AllocMemOf[float64](r, ownedN)
		q := mpi.AllocMemOf[float64](r, ownedN)
		defer mpi.FreeMemOf(r, z)
		defer mpi.FreeMemOf(r, res)
		defer mpi.FreeMemOf(r, p)
		defer mpi.FreeMemOf(r, q)
		clear(z)
		for i := range res {
			res[i] = 1.0
			p[i] = 1.0
		}
		dotLocal := func(a, b []float64) float64 {
			var s float64
			for i := range a {
				s += float64(a[i] * b[i])
			}
			return s
		}
		rho := r.AllreduceFloat64(dotLocal(res, res), mpi.SumFloat64)
		rho0 := rho

		pAll, pMine := r.AllocMem(8*perRank*size), r.AllocMem(8*perRank)
		defer r.FreeMem(pAll)
		defer r.FreeMem(pMine)
		flops := 0.0
		for iter := 0; iter < niter; iter++ {
			// q = A p: allgather p, then local SpMV.
			for i := 0; i < ownedN; i++ {
				binary.LittleEndian.PutUint64(pMine[8*i:], math.Float64bits(p[i]))
			}
			r.Allgather(pMine, pAll)
			for i := 0; i < ownedN; i++ {
				q[i] = rowTimes(i, p[i], pAll)
			}
			work := float64(2*nnz + 2*ownedN)
			r.Compute(work)
			flops += work

			pq := r.AllreduceFloat64(dotLocal(p, q), mpi.SumFloat64)
			alpha := rho / pq
			for i := range z {
				z[i] += float64(alpha * p[i])
				res[i] -= float64(alpha * q[i])
			}
			rhoNew := r.AllreduceFloat64(dotLocal(res, res), mpi.SumFloat64)
			beta := rhoNew / rho
			rho = rhoNew
			for i := range p {
				p[i] = res[i] + float64(beta*p[i])
			}
			work = float64(6 * ownedN)
			r.Compute(work)
			flops += work
		}

		// Verification: residual must have dropped sharply and must match a
		// directly recomputed ||b - A z||.
		for i := 0; i < ownedN; i++ {
			binary.LittleEndian.PutUint64(pMine[8*i:], math.Float64bits(z[i]))
		}
		r.Allgather(pMine, pAll)
		var direct float64
		for i := 0; i < ownedN; i++ {
			d := 1.0 - rowTimes(i, z[i], pAll)
			direct += float64(d * d)
		}
		direct = r.AllreduceFloat64(direct, mpi.SumFloat64)
		ok := rho < rho0*1e-6 && math.Abs(direct-rho) <= float64(1e-6*(direct+rho))+1e-12
		return ok, flops, nil
	})
}
