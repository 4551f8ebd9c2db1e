// Package mltrain implements data-parallel training-step proxies on the
// simulated MPI runtime: the compute → gradient-exchange → compute phase
// loop of synchronous SGD, with gradients exchanged either by Allreduce
// (the ring/recursive-doubling/Rabenseifner family, chosen by the runtime's
// collective algorithm selector) or through a parameter server's asymmetric
// push/pull traffic. ML training is the workload container HPC clouds are
// built for ("Evaluation of Docker Containers for Scientific Workloads in
// the Cloud").
//
// Gradients and parameter-server buffers come from Rank.AllocMem, zeroed,
// and go back when the job ends, so a repeated job reuses them. Layers past
// the pool's largest class (16 MiB + 64 bytes) still come from the
// allocator every time.
package mltrain

import (
	"fmt"
	"sync"

	"cmpi/internal/mpi"
)

// Config sizes one synthetic training job. Layer sizes play the role of
// real gradient buffers (1 KiB–64 MiB in practice) and must be multiples
// of 8 (float64 gradients).
type Config struct {
	// Layers are the per-layer gradient buffer sizes in bytes, exchanged
	// back to front each step (backpropagation emits the last layer first).
	Layers []int
	// Steps is the number of timed optimization steps.
	Steps int
	// Warmup steps run before timing starts.
	Warmup int
	// ComputeUnits is the forward+backward compute charged before each
	// exchange phase (sim compute units).
	ComputeUnits float64
	// OptimizerUnits is the parameter-update compute charged after the
	// exchange, closing the compute → exchange → compute loop.
	OptimizerUnits float64
}

// DefaultConfig returns a small training job over the given layer sizes.
func DefaultConfig(layers ...int) Config {
	return Config{
		Layers:         layers,
		Steps:          4,
		Warmup:         1,
		ComputeUnits:   2048,
		OptimizerUnits: 512,
	}
}

func (c Config) validate() error {
	if len(c.Layers) == 0 {
		return fmt.Errorf("mltrain: no layers configured")
	}
	for i, n := range c.Layers {
		if n <= 0 || n%8 != 0 {
			return fmt.Errorf("mltrain: layer %d size %d: gradients are float64s, need a positive multiple of 8", i, n)
		}
	}
	if c.Steps <= 0 {
		return fmt.Errorf("mltrain: need at least one step, got %d", c.Steps)
	}
	return nil
}

// Report summarizes one training run.
type Report struct {
	// StepMicros is the mean time per timed step, worst over ranks (us).
	StepMicros float64
	// BytesPerStep is the gradient payload each rank contributes per step
	// (the sum of layer sizes).
	BytesPerStep int64
}

// stepTimer collects per-rank mean step times and reduces them on the host
// after the job ends. Aggregating out of band (instead of a final in-band
// allreduce) keeps the timed region clean: an early-finishing rank's
// reduction packets would otherwise land inside a slow rank's last step and
// inflate its measurement by however much receiver progress they steal —
// and by a different amount per forced algorithm, making columns that ran
// identical gradient exchanges disagree.
type stepTimer struct {
	mu    sync.Mutex
	worst float64
}

func (t *stepTimer) record(us float64) {
	t.mu.Lock()
	if us > t.worst {
		t.worst = us
	}
	t.mu.Unlock()
}

func (c Config) bytesPerStep() int64 {
	var n int64
	for _, l := range c.Layers {
		n += int64(l)
	}
	return n
}

// DataParallel runs synchronous data-parallel SGD: every rank computes a
// forward+backward pass, allreduces each layer's gradients back to front
// (the runtime's selector picks ring, recursive doubling, or Rabenseifner
// per buffer), then applies the optimizer. The first step verifies the
// reduction on every rank: gradients are seeded per (rank, layer), so the
// reduced value is known in closed form.
func DataParallel(w *mpi.World, cfg Config) (Report, error) {
	if err := cfg.validate(); err != nil {
		return Report{}, err
	}
	var tm stepTimer
	err := w.Run(func(r *mpi.Rank) error {
		n := r.Size()
		grads := layerBufs(r, cfg.Layers)
		defer freeAll(r, grads)
		step := func(verify bool) error {
			// Forward + backward pass produces this step's gradients.
			r.Compute(cfg.ComputeUnits)
			for i := range grads {
				seed := gradSeed(r.Rank(), i)
				mpi.AppendFloat64s(grads[i][:0], []float64{seed})
			}
			// Exchange, last layer first.
			for i := len(grads) - 1; i >= 0; i-- {
				r.Allreduce(grads[i], mpi.SumFloat64)
				if verify {
					var first [1]float64
					got := mpi.DecodeFloat64sInto(first[:0], grads[i][:8])[0]
					want := 0.0
					for rank := 0; rank < n; rank++ {
						want += gradSeed(rank, i)
					}
					if got != want {
						return fmt.Errorf("rank %d layer %d: reduced gradient %v, want %v", r.Rank(), i, got, want)
					}
				}
			}
			// Parameter update.
			r.Compute(cfg.OptimizerUnits)
			return nil
		}
		for i := 0; i < cfg.Warmup; i++ {
			if err := step(i == 0); err != nil {
				return err
			}
		}
		r.Barrier()
		start := r.Now()
		for i := 0; i < cfg.Steps; i++ {
			// Verification decodes and compares on the host only — it
			// charges no simulated time, so running it inside the timed
			// loop (when there was no warmup step) is harmless.
			if err := step(cfg.Warmup == 0 && i == 0); err != nil {
				return err
			}
		}
		tm.record((r.Now() - start).Micros() / float64(cfg.Steps))
		return nil
	})
	return Report{StepMicros: tm.worst, BytesPerStep: cfg.bytesPerStep()}, err
}

// ParameterServer runs the asymmetric push/pull pattern: rank 0 is the
// server, every other rank a worker. Per step each worker computes, pushes
// its gradients to the server (incast), and pulls the updated parameters
// back (outcast); the server sums the pushes, applies the optimizer, and
// broadcasts by point-to-point sends. Needs at least 2 ranks.
func ParameterServer(w *mpi.World, cfg Config) (Report, error) {
	if err := cfg.validate(); err != nil {
		return Report{}, err
	}
	const (
		pushTag = 4000
		pullTag = 5000
	)
	var tm stepTimer
	err := w.Run(func(r *mpi.Rank) error {
		n := r.Size()
		if n < 2 {
			return fmt.Errorf("mltrain: parameter server needs >= 2 ranks, got %d", n)
		}
		server := r.Rank() == 0
		bufs := layerBufs(r, cfg.Layers)
		defer freeAll(r, bufs)
		var inbox [][]byte // server-side per-worker landing buffers
		var reqs []*mpi.Request
		if server {
			maxLayer := 0
			for _, sz := range cfg.Layers {
				if sz > maxLayer {
					maxLayer = sz
				}
			}
			inbox = make([][]byte, n-1)
			for i := range inbox {
				inbox[i] = r.AllocMem(maxLayer)
			}
			defer freeAll(r, inbox)
			reqs = make([]*mpi.Request, 0, n-1)
		}
		step := func() {
			if server {
				// The server overlaps receives across workers per layer,
				// reduces, updates, and pushes parameters back.
				for i := len(bufs) - 1; i >= 0; i-- {
					reqs = reqs[:0]
					for src := 1; src < n; src++ {
						reqs = append(reqs, r.Irecv(src, pushTag+i, inbox[src-1][:len(bufs[i])]))
					}
					r.WaitAll(reqs...)
					r.Release(reqs...)
					for src := 1; src < n; src++ {
						mpi.SumFloat64(bufs[i], inbox[src-1][:len(bufs[i])])
					}
				}
				r.Compute(cfg.OptimizerUnits)
				for i := range bufs {
					reqs = reqs[:0]
					for dst := 1; dst < n; dst++ {
						reqs = append(reqs, r.Isend(dst, pullTag+i, bufs[i]))
					}
					r.WaitAll(reqs...)
					r.Release(reqs...)
				}
				return
			}
			r.Compute(cfg.ComputeUnits)
			for i := len(bufs) - 1; i >= 0; i-- {
				r.Send(0, pushTag+i, bufs[i])
			}
			for i := range bufs {
				r.Recv(0, pullTag+i, bufs[i])
			}
			r.Compute(cfg.OptimizerUnits)
		}
		for i := 0; i < cfg.Warmup; i++ {
			step()
		}
		r.Barrier()
		start := r.Now()
		for i := 0; i < cfg.Steps; i++ {
			step()
		}
		tm.record((r.Now() - start).Micros() / float64(cfg.Steps))
		return nil
	})
	return Report{StepMicros: tm.worst, BytesPerStep: cfg.bytesPerStep()}, err
}

// layerBufs returns one buffer per layer from the rank's pool, zeroed: a
// step writes only a gradient's first value, and the exchange reduces the
// whole buffer.
func layerBufs(r *mpi.Rank, layers []int) [][]byte {
	bufs := make([][]byte, len(layers))
	for i, sz := range layers {
		bufs[i] = r.AllocMem(sz)
		clear(bufs[i])
	}
	return bufs
}

// freeAll hands every buffer back to the rank's pool.
func freeAll(r *mpi.Rank, bufs [][]byte) {
	for _, b := range bufs {
		r.FreeMem(b)
	}
}

// gradSeed is the deterministic per-(rank, layer) gradient value the
// verification step predicts the sum of.
func gradSeed(rank, layer int) float64 {
	return float64(float64(rank+1)*0.5) + float64(layer)
}
