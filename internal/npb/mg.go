package npb

import (
	"fmt"
	"math"

	"cmpi/internal/mpi"
)

// mgSize returns (finest grid edge n, V-cycles) per class; the domain is an
// n x n grid, row-stripe decomposed.
func mgSize(c Class) (int, int, error) {
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

// mgLevel is one grid level's distributed state: a row stripe with halos.
type mgLevel struct {
	n    int     // global edge
	rows int     // interior rows owned
	h2   float64 // grid spacing squared (h = 1/(n+1))
	u    [][]float64
	rhs  [][]float64
	res  [][]float64
}

// RunMG runs a simplified 2D multigrid Poisson solver: V-cycles of Jacobi
// smoothing with halo exchange at every level, full-weighting restriction,
// and bilinear prolongation. The communication signature matches NPB MG:
// nearest-neighbor exchanges whose message size halves per level (becoming
// latency-bound on coarse grids) plus residual-norm allreduces.
// Verification checks that each V-cycle strictly contracts the residual and
// that the final norm is far below the initial one.
func RunMG(w *mpi.World, class Class) (Result, error) {
	n, cycles, err := mgSize(class)
	if err != nil {
		return Result{}, err
	}
	return timeKernel(w, "MG", class, func(r *mpi.Rank) (bool, float64, error) {
		size := r.Size()
		// Levels while each rank still owns >= 2 rows, capped at 4: with
		// even-sized (power-of-two) grids, vertex-centered coarsening is
		// offset by half a fine cell per level (exact alignment needs
		// 2^k-1 grids), and the accumulated drift destabilizes V-cycles
		// deeper than ~4 levels.
		var levels []*mgLevel
		for ln := n; len(levels) < 4 && ln >= 2*size && ln%size == 0 && ln%2 == 0; ln /= 2 {
			h := 1.0 / float64(ln+1)
			lv := &mgLevel{n: ln, rows: ln / size, h2: h * h}
			alloc := func() [][]float64 {
				g := make([][]float64, lv.rows+2)
				for i := range g {
					g[i] = make([]float64, ln)
				}
				return g
			}
			lv.u, lv.rhs, lv.res = alloc(), alloc(), alloc()
			levels = append(levels, lv)
		}
		if len(levels) < 2 {
			return false, 0, fmt.Errorf("npb MG: grid %d too small for %d ranks", n, size)
		}

		// RHS: a few point charges, deterministic and rank-count invariant.
		fine := levels[0]
		base := r.Rank() * fine.rows
		for _, pt := range [][2]int{{n / 4, n / 4}, {n / 2, 3 * n / 4}, {3 * n / 4, n / 8}} {
			if pt[0] >= base && pt[0] < base+fine.rows {
				fine.rhs[pt[0]-base+1][pt[1]] = 1.0
			}
		}

		up, down := r.Rank()-1, r.Rank()+1
		flops := 0.0

		// One send and one receive row, sized for the finest level, serve
		// every halo exchange: Sendrecv is done with both when it returns,
		// and a halo row is decoded straight into its grid row.
		out, in := r.AllocMem(8 * n)[:0], r.AllocMem(8*n)
		defer r.FreeMem(out)
		defer r.FreeMem(in)
		exchangeHalo := func(lv *mgLevel, g [][]float64, tag int) {
			in := in[:8*lv.n]
			if up >= 0 {
				out = mpi.AppendFloat64s(out[:0], g[1])
				r.Sendrecv(up, tag, out, up, tag+1, in)
				mpi.DecodeFloat64sInto(g[0][:0], in)
			} else {
				for j := range g[0] {
					g[0][j] = 0 // Dirichlet wall
				}
			}
			if down < size {
				out = mpi.AppendFloat64s(out[:0], g[lv.rows])
				r.Sendrecv(down, tag+1, out, down, tag, in)
				mpi.DecodeFloat64sInto(g[lv.rows+1][:0], in)
			} else {
				for j := range g[lv.rows+1] {
					g[lv.rows+1][j] = 0
				}
			}
		}
		at := func(g [][]float64, i, j, ln int) float64 {
			if j < 0 || j >= ln {
				return 0
			}
			return g[i][j]
		}
		smooth := func(lv *mgLevel, sweeps int) {
			// Weighted Jacobi (omega = 0.8): plain Jacobi leaves the
			// checkerboard mode undamped and stalls the V-cycle.
			const omega = 0.8
			for s := 0; s < sweeps; s++ {
				exchangeHalo(lv, lv.u, 20)
				for i := 1; i <= lv.rows; i++ {
					for j := 0; j < lv.n; j++ {
						jac := 0.25 * (at(lv.u, i-1, j, lv.n) + at(lv.u, i+1, j, lv.n) +
							at(lv.u, i, j-1, lv.n) + at(lv.u, i, j+1, lv.n) + lv.h2*lv.rhs[i][j])
						lv.res[i][j] = (1-omega)*lv.u[i][j] + omega*jac
					}
				}
				lv.u, lv.res = lv.res, lv.u
				work := float64(lv.rows*lv.n) * 1.5
				r.Compute(work)
				flops += work
			}
		}
		residual := func(lv *mgLevel) {
			exchangeHalo(lv, lv.u, 24)
			for i := 1; i <= lv.rows; i++ {
				for j := 0; j < lv.n; j++ {
					lap := at(lv.u, i-1, j, lv.n) + at(lv.u, i+1, j, lv.n) +
						at(lv.u, i, j-1, lv.n) + at(lv.u, i, j+1, lv.n) - 4*lv.u[i][j]
					lv.res[i][j] = lv.rhs[i][j] + lap/lv.h2
				}
			}
			work := float64(lv.rows*lv.n) * 1.5
			r.Compute(work)
			flops += work
		}
		norm := func(lv *mgLevel) float64 {
			var s float64
			for i := 1; i <= lv.rows; i++ {
				for j := 0; j < lv.n; j++ {
					s += lv.res[i][j] * lv.res[i][j]
				}
			}
			return math.Sqrt(r.AllreduceFloat64(s, mpi.SumFloat64))
		}

		var vcycle func(level int)
		vcycle = func(level int) {
			lv := levels[level]
			if level == len(levels)-1 {
				smooth(lv, 8) // coarsest: relax hard
				return
			}
			smooth(lv, 2)
			residual(lv)
			// Full-weighting restriction of the residual to the next level.
			crs := levels[level+1]
			exchangeHalo(lv, lv.res, 28)
			for i := 1; i <= crs.rows; i++ {
				fi := 2*i - 1 // fine interior row index for coarse row i
				for j := 0; j < crs.n; j++ {
					fj := 2 * j
					fw := 0.25*lv.res[fi][fj] +
						0.125*(at(lv.res, fi-1, fj, lv.n)+at(lv.res, fi+1, fj, lv.n)+
							at(lv.res, fi, fj-1, lv.n)+at(lv.res, fi, fj+1, lv.n)) +
						0.0625*(at(lv.res, fi-1, fj-1, lv.n)+at(lv.res, fi-1, fj+1, lv.n)+
							at(lv.res, fi+1, fj-1, lv.n)+at(lv.res, fi+1, fj+1, lv.n))
					// The operator is properly h²-scaled per level, so the
					// restricted residual transfers with no extra factor.
					crs.rhs[i][j] = fw
					crs.u[i][j] = 0
				}
			}
			r.Compute(float64(crs.rows*crs.n) * 2)
			vcycle(level + 1)
			// Bilinear prolongation and correction.
			exchangeHalo(crs, crs.u, 32)
			for i := 1; i <= lv.rows; i++ {
				gi := i + 0 // local fine row
				ci := (gi + 1) / 2
				for j := 0; j < lv.n; j++ {
					cj := j / 2
					var v float64
					if gi%2 == 1 && j%2 == 0 {
						v = crs.u[ci][cj]
					} else if gi%2 == 1 {
						v = 0.5 * (crs.u[ci][cj] + at(crs.u, ci, cj+1, crs.n))
					} else if j%2 == 0 {
						v = 0.5 * (crs.u[ci][cj] + at(crs.u, ci+1, cj, crs.n))
					} else {
						v = 0.25 * (crs.u[ci][cj] + at(crs.u, ci, cj+1, crs.n) +
							at(crs.u, ci+1, cj, crs.n) + at(crs.u, ci+1, cj+1, crs.n))
					}
					lv.u[i][j] += v
				}
			}
			r.Compute(float64(lv.rows*lv.n) * 2)
			smooth(lv, 2)
		}

		residual(fine)
		initial := norm(fine)
		prev := initial
		ok := initial > 0
		for c := 0; c < cycles; c++ {
			vcycle(0)
			residual(fine)
			nm := norm(fine)
			if nm >= prev {
				ok = false // multigrid must contract every cycle
			}
			prev = nm
		}
		if prev > initial*0.05 {
			ok = false // expect >20x total reduction
		}
		return ok, flops, nil
	})
}
