package npb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

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
		type ent struct {
			col int
			val float64
		}
		outs := make([][]byte, size)
		push := func(row, col int, val float64) {
			var e [16]byte
			binary.LittleEndian.PutUint32(e[0:], uint32(row))
			binary.LittleEndian.PutUint32(e[4:], uint32(col))
			binary.LittleEndian.PutUint64(e[8:], math.Float64bits(val))
			d := owner(row)
			outs[d] = append(outs[d], e[:]...)
		}
		rng := rand.New(rand.NewSource(0)) // reseeded per row
		for row := base; row < base+ownedN; row++ {
			rng.Seed(seed + int64(row))
			for k := 0; k < nzHalf && row > 0; k++ {
				col := rng.Intn(row)
				val := rng.Float64()
				push(row, col, val)
				push(col, row, val)
			}
		}
		r.Compute(float64(ownedN * nzHalf * 4))

		counts := make([]int64, size)
		for d := range outs {
			counts[d] = int64(len(outs[d]))
		}
		rc := r.AllocMem(8 * size)
		defer r.FreeMem(rc)
		r.Alltoall(mpi.EncodeInt64s(counts), rc, 8)
		inCounts := mpi.DecodeInt64s(rc)
		ins := make([][]byte, size)
		var reqs []*mpi.Request
		for peer := 0; peer < size; peer++ {
			if peer == r.Rank() {
				ins[peer] = outs[peer]
				continue
			}
			ins[peer] = r.AllocMem(int(inCounts[peer]))
			defer r.FreeMem(ins[peer])
			if inCounts[peer] > 0 {
				reqs = append(reqs, r.Irecv(peer, 2, ins[peer]))
			}
			if len(outs[peer]) > 0 {
				reqs = append(reqs, r.Isend(peer, 2, outs[peer]))
			}
		}
		r.WaitAll(reqs...)

		rows := make([][]ent, ownedN)
		diag := make([]float64, ownedN)
		var nnz int
		for _, buf := range ins {
			for off := 0; off+16 <= len(buf); off += 16 {
				row := int(binary.LittleEndian.Uint32(buf[off:]))
				col := int(binary.LittleEndian.Uint32(buf[off+4:]))
				val := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:]))
				li := row - base
				rows[li] = append(rows[li], ent{col: col, val: val})
				diag[li] += val
				nnz++
			}
		}
		for i := range diag {
			diag[i] += 1.0 // strict dominance => positive definite
		}

		// --- CG solve of A z = b with b = ones.
		z := make([]float64, ownedN)
		res := make([]float64, ownedN) // residual
		p := make([]float64, ownedN)
		for i := range res {
			res[i] = 1.0
			p[i] = 1.0
		}
		dotLocal := func(a, b []float64) float64 {
			var s float64
			for i := range a {
				s += a[i] * b[i]
			}
			return s
		}
		rho := r.AllreduceFloat64(dotLocal(res, res), mpi.SumFloat64)
		rho0 := rho

		pAll, pMine := r.AllocMem(8*perRank*size), r.AllocMem(8*perRank)
		defer r.FreeMem(pAll)
		defer r.FreeMem(pMine)
		q := make([]float64, ownedN)
		flops := 0.0
		for iter := 0; iter < niter; iter++ {
			// q = A p: allgather p, then local SpMV.
			for i := 0; i < ownedN; i++ {
				binary.LittleEndian.PutUint64(pMine[8*i:], math.Float64bits(p[i]))
			}
			r.Allgather(pMine, pAll)
			pGlobal := func(col int) float64 {
				return math.Float64frombits(binary.LittleEndian.Uint64(pAll[8*col:]))
			}
			for i := 0; i < ownedN; i++ {
				s := diag[i] * p[i]
				for _, e := range rows[i] {
					s += e.val * pGlobal(e.col)
				}
				q[i] = s
			}
			work := float64(2*nnz + 2*ownedN)
			r.Compute(work)
			flops += work

			pq := r.AllreduceFloat64(dotLocal(p, q), mpi.SumFloat64)
			alpha := rho / pq
			for i := range z {
				z[i] += alpha * p[i]
				res[i] -= alpha * q[i]
			}
			rhoNew := r.AllreduceFloat64(dotLocal(res, res), mpi.SumFloat64)
			beta := rhoNew / rho
			rho = rhoNew
			for i := range p {
				p[i] = res[i] + beta*p[i]
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
		zGlobal := func(col int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(pAll[8*col:]))
		}
		var direct float64
		for i := 0; i < ownedN; i++ {
			s := diag[i] * z[i]
			for _, e := range rows[i] {
				s += e.val * zGlobal(e.col)
			}
			d := 1.0 - s
			direct += d * d
		}
		direct = r.AllreduceFloat64(direct, mpi.SumFloat64)
		ok := rho < rho0*1e-6 && math.Abs(direct-rho) <= 1e-6*(direct+rho)+1e-12
		return ok, flops, nil
	})
}
