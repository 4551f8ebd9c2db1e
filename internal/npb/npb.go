// Package npb implements communication-faithful reductions of four NAS
// Parallel Benchmark kernels on the simulated MPI runtime:
//
//   - EP: embarrassingly parallel Gaussian-pair generation (allreduce-light)
//   - CG: conjugate gradient on a sparse symmetric diagonally-dominant
//     matrix (allreduce- and allgather-heavy — the kernel the paper reports
//     an 11% improvement for)
//   - FT: 2D FFT with a distributed transpose (alltoall-heavy)
//   - IS: bucketed integer sort (alltoallv-heavy)
//
// Each kernel executes real data movement and real arithmetic (results are
// verified), while the arithmetic *cost* is charged to the virtual clock
// through the perf model. Problem sizes are scaled down from the official
// NPB classes to stay tractable inside a discrete-event simulation; the
// communication patterns and their relative volumes are preserved.
//
// A kernel borrows all its working memory from its rank: messages from
// Rank.AllocMem, typed arrays from mpi.AllocMemOf (cleared where a value is
// read before it is written), generators from mpi.NewRand, all handed back
// when the kernel returns. So a warm process reruns a kernel without
// allocating its state again.
package npb

import (
	"fmt"

	"cmpi/internal/mpi"
	"cmpi/internal/sim"
)

// Class selects the (scaled-down) problem size.
type Class byte

// Problem classes, from smoke-test to benchmark size.
const (
	ClassS Class = 'S'
	ClassW Class = 'W'
	ClassA Class = 'A'
	ClassB Class = 'B'
)

// Result is one kernel execution.
type Result struct {
	// Kernel is "EP", "CG", "FT" or "IS".
	Kernel string
	// Class is the problem class.
	Class Class
	// Time is the kernel wall time (max across ranks, excluding setup).
	Time sim.Time
	// Verified reports whether the kernel's correctness check passed.
	Verified bool
	// Metric is a kernel-specific figure of merit (Mop/s-style, derived
	// from virtual time).
	Metric float64
}

// String renders the result in NPB report style.
func (r Result) String() string {
	v := "FAILED"
	if r.Verified {
		v = "VERIFIED"
	}
	return fmt.Sprintf("%s.%c  time=%v  %s  metric=%.2f", r.Kernel, r.Class, r.Time, v, r.Metric)
}

// Kernel is a runnable NPB kernel.
type Kernel func(w *mpi.World, class Class) (Result, error)

// Kernels maps kernel names to runners.
func Kernels() map[string]Kernel {
	return map[string]Kernel{
		"EP": RunEP,
		"CG": RunCG,
		"FT": RunFT,
		"IS": RunIS,
		"MG": RunMG,
	}
}

// timeKernel runs body on every rank, timing from a pre-barrier to the
// all-rank max of completion, and collecting a verification flag.
func timeKernel(w *mpi.World, kernel string, class Class, body func(r *mpi.Rank) (verified bool, metricUnits float64, err error)) (Result, error) {
	res := Result{Kernel: kernel, Class: class}
	var failure error
	err := w.Run(func(r *mpi.Rank) error {
		r.Barrier()
		start := r.Now()
		ok, units, err := body(r)
		if err != nil {
			failure = err
			return err
		}
		elapsed := (r.Now() - start).Seconds()
		worst := r.AllreduceFloat64(elapsed, mpi.MaxFloat64)
		allOK := r.AllreduceInt64(boolToInt(ok), mpi.MinInt64)
		totalUnits := r.AllreduceFloat64(units, mpi.SumFloat64)
		if r.Rank() == 0 {
			res.Time = sim.FromSeconds(worst)
			res.Verified = allOK == 1
			if worst > 0 {
				res.Metric = totalUnits / worst / 1e6
			}
		}
		return nil
	})
	if failure != nil {
		return res, failure
	}
	return res, err
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
