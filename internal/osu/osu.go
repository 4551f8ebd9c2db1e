// Package osu reimplements the measurement loops of the OSU
// micro-benchmarks (v5.0 conventions) on the simulated MPI runtime:
// ping-pong latency, window-based bandwidth and bidirectional bandwidth,
// message rate, one-sided put/get latency and bandwidth, and collective
// latencies. The paper's Figs. 3, 7, 8, 9 and 10 are all OSU measurements.
package osu

import (
	"fmt"

	"cmpi/internal/mpi"
	"cmpi/internal/sim"
)

// Result is one (message size, metric) point.
type Result struct {
	// Bytes is the message size.
	Bytes int
	// Value is the metric: microseconds for latency benches, MB/s for
	// bandwidth benches, messages/s for message-rate benches.
	Value float64
}

// Series is a sweep over message sizes.
type Series []Result

// At returns the value at the given message size (exact match) and whether
// it exists.
func (s Series) At(bytes int) (float64, bool) {
	for _, r := range s {
		if r.Bytes == bytes {
			return r.Value, true
		}
	}
	return 0, false
}

// PowersOfTwo returns {lo, 2lo, ..., hi} (inclusive when hi is reached).
// lo must be >= 1: doubling never advances from zero or a negative value,
// so such a lo would loop forever. It panics on misuse rather than
// returning a silently empty sweep.
func PowersOfTwo(lo, hi int) []int {
	if lo < 1 {
		panic(fmt.Sprintf("osu.PowersOfTwo: lo must be >= 1, got %d", lo))
	}
	var out []int
	for n := lo; n <= hi; n *= 2 {
		out = append(out, n)
	}
	return out
}

// Config controls iteration counts.
type Config struct {
	// Iters is the number of timed iterations per size.
	Iters int
	// Warmup iterations run before timing starts.
	Warmup int
	// Window is the number of in-flight messages for bandwidth tests.
	Window int
}

// DefaultConfig mirrors OSU defaults, scaled for simulation speed.
func DefaultConfig() Config {
	return Config{Iters: 100, Warmup: 10, Window: 64}
}

const (
	pingTag = 1000
	pongTag = 1001
	ackTag  = 1002
)

// Latency runs the osu_latency ping-pong between ranks 0 and 1 and reports
// one-way latency in microseconds.
func Latency(w *mpi.World, sizes []int, cfg Config) (Series, error) {
	var out Series
	err := w.Run(func(r *mpi.Rank) error {
		if r.Rank() > 1 {
			return nil
		}
		for _, sz := range sizes {
			buf := r.AllocMem(sz)
			iter := func(n int) {
				for i := 0; i < n; i++ {
					if r.Rank() == 0 {
						r.Send(1, pingTag, buf)
						r.Recv(1, pongTag, buf)
					} else {
						r.Recv(0, pingTag, buf)
						r.Send(0, pongTag, buf)
					}
				}
			}
			iter(cfg.Warmup)
			start := r.Now()
			iter(cfg.Iters)
			if r.Rank() == 0 {
				oneWay := (r.Now() - start).Micros() / float64(2*cfg.Iters)
				out = append(out, Result{Bytes: sz, Value: oneWay})
			}
			r.FreeMem(buf)
		}
		return nil
	})
	return out, err
}

// bandwidthLoop implements the osu_bw window pattern; returns the elapsed
// span. As in osu_bw.c, the receiver posts the whole window on one r_buf
// (nothing reads the received bytes) and the request array is allocated once
// per message size.
func bandwidthLoop(r *mpi.Rank, sz int, cfg Config) sim.Time {
	buf, ack := r.AllocMem(sz), r.AllocMem(4)
	defer r.FreeMem(buf)
	defer r.FreeMem(ack)
	reqs := make([]*mpi.Request, cfg.Window)
	window := func() {
		if r.Rank() == 0 {
			for i := range reqs {
				reqs[i] = r.Isend(1, pingTag, buf)
			}
			r.WaitAll(reqs...)
			r.Release(reqs...)
			r.Recv(1, ackTag, ack)
		} else {
			for i := range reqs {
				reqs[i] = r.Irecv(0, pingTag, buf)
			}
			r.WaitAll(reqs...)
			r.Release(reqs...)
			r.Send(0, ackTag, ack)
		}
	}
	for i := 0; i < cfg.Warmup; i++ {
		window()
	}
	start := r.Now()
	for i := 0; i < cfg.Iters; i++ {
		window()
	}
	return r.Now() - start
}

// Bandwidth runs osu_bw between ranks 0 and 1 (MB/s, 1 MB = 1e6 bytes).
func Bandwidth(w *mpi.World, sizes []int, cfg Config) (Series, error) {
	var out Series
	err := w.Run(func(r *mpi.Rank) error {
		if r.Rank() > 1 {
			return nil
		}
		for _, sz := range sizes {
			elapsed := bandwidthLoop(r, sz, cfg)
			if r.Rank() == 0 {
				bytes := float64(sz) * float64(cfg.Window) * float64(cfg.Iters)
				out = append(out, Result{Bytes: sz, Value: bytes / elapsed.Seconds() / 1e6})
			}
		}
		return nil
	})
	return out, err
}

// MessageRate runs the osu_bw loop but reports messages per second.
func MessageRate(w *mpi.World, sizes []int, cfg Config) (Series, error) {
	var out Series
	err := w.Run(func(r *mpi.Rank) error {
		if r.Rank() > 1 {
			return nil
		}
		for _, sz := range sizes {
			elapsed := bandwidthLoop(r, sz, cfg)
			if r.Rank() == 0 {
				msgs := float64(cfg.Window) * float64(cfg.Iters)
				out = append(out, Result{Bytes: sz, Value: msgs / elapsed.Seconds()})
			}
		}
		return nil
	})
	return out, err
}

// BiBandwidth runs osu_bibw: both ranks stream windows simultaneously.
func BiBandwidth(w *mpi.World, sizes []int, cfg Config) (Series, error) {
	var out Series
	err := w.Run(func(r *mpi.Rank) error {
		if r.Rank() > 1 {
			return nil
		}
		peer := 1 - r.Rank()
		for _, sz := range sizes {
			buf := r.AllocMem(sz)
			rbuf := r.AllocMem(sz) // one r_buf for the whole window, as in osu_bibw.c
			ack := r.AllocMem(4)
			reqs := make([]*mpi.Request, 2*cfg.Window)
			sends, recvs := reqs[:cfg.Window], reqs[cfg.Window:]
			window := func() {
				for i := range recvs {
					recvs[i] = r.Irecv(peer, pingTag, rbuf)
				}
				for i := range sends {
					sends[i] = r.Isend(peer, pingTag, buf)
				}
				r.WaitAll(reqs...)
				r.Release(reqs...)
				// Cross acks close the window.
				aq := r.Irecv(peer, ackTag, ack)
				r.Send(peer, ackTag, ack)
				r.Wait(aq)
			}
			for i := 0; i < cfg.Warmup; i++ {
				window()
			}
			start := r.Now()
			for i := 0; i < cfg.Iters; i++ {
				window()
			}
			if r.Rank() == 0 {
				bytes := 2 * float64(sz) * float64(cfg.Window) * float64(cfg.Iters)
				out = append(out, Result{Bytes: sz, Value: bytes / (r.Now() - start).Seconds() / 1e6})
			}
			r.FreeMem(buf)
			r.FreeMem(rbuf)
			r.FreeMem(ack)
		}
		return nil
	})
	return out, err
}

// MultiPairBandwidth runs osu_mbw_mr: the first half of the ranks stream
// windows to the second half simultaneously (rank i -> i + n/2), reporting
// aggregate bandwidth (MB/s). With co-resident pairs this measures how the
// channels scale under concurrency — e.g. the shared HCA loopback engine
// saturates while per-pair SHM rings do not.
func MultiPairBandwidth(w *mpi.World, sizes []int, cfg Config) (Series, error) {
	var out Series
	err := w.Run(func(r *mpi.Rank) error {
		n := r.Size()
		if n%2 != 0 {
			return fmt.Errorf("osu_mbw_mr needs an even rank count, got %d", n)
		}
		half := n / 2
		sender := r.Rank() < half
		peer := (r.Rank() + half) % n
		for _, sz := range sizes {
			buf, ack := r.AllocMem(sz), r.AllocMem(4)
			reqs := make([]*mpi.Request, cfg.Window)
			window := func() {
				if sender {
					for i := range reqs {
						reqs[i] = r.Isend(peer, pingTag, buf)
					}
					r.WaitAll(reqs...)
					r.Release(reqs...)
					r.Recv(peer, ackTag, ack)
				} else {
					for i := range reqs {
						reqs[i] = r.Irecv(peer, pingTag, buf)
					}
					r.WaitAll(reqs...)
					r.Release(reqs...)
					r.Send(peer, ackTag, ack)
				}
			}
			r.Barrier()
			for i := 0; i < cfg.Warmup; i++ {
				window()
			}
			r.Barrier()
			start := r.Now()
			for i := 0; i < cfg.Iters; i++ {
				window()
			}
			elapsed := (r.Now() - start).Seconds()
			worst := r.AllreduceFloat64(elapsed, mpi.MaxFloat64)
			if r.Rank() == 0 {
				bytes := float64(sz) * float64(cfg.Window) * float64(cfg.Iters) * float64(half)
				out = append(out, Result{Bytes: sz, Value: bytes / worst / 1e6})
			}
			r.FreeMem(buf)
			r.FreeMem(ack)
		}
		return nil
	})
	return out, err
}

// CollectiveKind names a collective benchmark.
type CollectiveKind int

// The collectives of the paper's Fig. 10.
const (
	Bcast CollectiveKind = iota
	Allreduce
	Allgather
	Alltoall
)

// String names the collective for output and errors.
func (k CollectiveKind) String() string {
	switch k {
	case Bcast:
		return "bcast"
	case Allreduce:
		return "allreduce"
	case Allgather:
		return "allgather"
	case Alltoall:
		return "alltoall"
	}
	return fmt.Sprintf("collective(%d)", int(k))
}

// Collective measures the mean latency (us) of the given collective over
// all ranks, OSU style: per size, iters timed calls bracketed by barriers;
// the reported value is the max over ranks of the mean per-call time.
func Collective(w *mpi.World, kind CollectiveKind, sizes []int, cfg Config) (Series, error) {
	var out Series
	err := w.Run(func(r *mpi.Rank) error {
		n := r.Size()
		for _, sz := range sizes {
			// a is the contribution, b (where the collective has one) the
			// gathered result.
			var a, b []byte
			var run func()
			switch kind {
			case Bcast:
				a = r.AllocMem(sz)
				run = func() { r.Bcast(0, a) }
			case Allreduce:
				a = r.AllocMem(sz)
				run = func() { r.Allreduce(a, mpi.SumFloat64) }
			case Allgather:
				a, b = r.AllocMem(sz), r.AllocMem(sz*n)
				run = func() { r.Allgather(a, b) }
			case Alltoall:
				a, b = r.AllocMem(sz*n), r.AllocMem(sz*n)
				run = func() { r.Alltoall(a, b, sz) }
			}
			for i := 0; i < cfg.Warmup; i++ {
				run()
			}
			r.Barrier()
			start := r.Now()
			for i := 0; i < cfg.Iters; i++ {
				run()
			}
			mine := (r.Now() - start).Micros() / float64(cfg.Iters)
			worst := r.AllreduceFloat64(mine, mpi.MaxFloat64)
			if r.Rank() == 0 {
				out = append(out, Result{Bytes: sz, Value: worst})
			}
			r.FreeMem(a)
			r.FreeMem(b)
		}
		return nil
	})
	return out, err
}

// PutLatency runs osu_put_latency: one put + flush per iteration (us/op).
func PutLatency(w *mpi.World, sizes []int, cfg Config) (Series, error) {
	return rmaLatency(w, sizes, cfg, true)
}

// GetLatency runs osu_get_latency (us/op).
func GetLatency(w *mpi.World, sizes []int, cfg Config) (Series, error) {
	return rmaLatency(w, sizes, cfg, false)
}

func rmaLatency(w *mpi.World, sizes []int, cfg Config, put bool) (Series, error) {
	var out Series
	maxSz := 0
	for _, sz := range sizes {
		if sz > maxSz {
			maxSz = sz
		}
	}
	err := w.Run(func(r *mpi.Rank) error {
		win := r.WinAllocate(maxSz)
		defer win.Free()
		for _, sz := range sizes {
			win.Fence()
			if r.Rank() == 0 {
				buf := r.AllocMem(sz)
				op := func() {
					if put {
						win.Put(1, 0, buf)
					} else {
						win.Get(1, 0, buf)
					}
					win.Flush()
				}
				for i := 0; i < cfg.Warmup; i++ {
					op()
				}
				start := r.Now()
				for i := 0; i < cfg.Iters; i++ {
					op()
				}
				out = append(out, Result{Bytes: sz, Value: (r.Now() - start).Micros() / float64(cfg.Iters)})
				r.FreeMem(buf)
			}
			win.Fence()
		}
		return nil
	})
	return out, err
}

// PutBandwidth runs osu_put_bw: windows of puts, flush per window (MB/s).
func PutBandwidth(w *mpi.World, sizes []int, cfg Config) (Series, error) {
	return rmaBandwidth(w, sizes, cfg, true, false)
}

// GetBandwidth runs osu_get_bw (MB/s).
func GetBandwidth(w *mpi.World, sizes []int, cfg Config) (Series, error) {
	return rmaBandwidth(w, sizes, cfg, false, false)
}

// PutBiBandwidth runs osu_put_bibw: both ranks put simultaneously (MB/s).
func PutBiBandwidth(w *mpi.World, sizes []int, cfg Config) (Series, error) {
	return rmaBandwidth(w, sizes, cfg, true, true)
}

func rmaBandwidth(w *mpi.World, sizes []int, cfg Config, put, bidir bool) (Series, error) {
	var out Series
	maxSz := 0
	for _, sz := range sizes {
		if sz > maxSz {
			maxSz = sz
		}
	}
	err := w.Run(func(r *mpi.Rank) error {
		win := r.WinAllocate(maxSz * cfg.Window)
		defer win.Free()
		for _, sz := range sizes {
			win.Fence()
			active := r.Rank() == 0 || (bidir && r.Rank() == 1)
			var elapsed sim.Time
			if active {
				peer := 1 - r.Rank()
				buf := r.AllocMem(sz)
				window := func() {
					for i := 0; i < cfg.Window; i++ {
						if put {
							win.Put(peer, i*sz, buf)
						} else {
							win.Get(peer, i*sz, buf)
						}
					}
					win.Flush()
				}
				for i := 0; i < cfg.Warmup; i++ {
					window()
				}
				start := r.Now()
				for i := 0; i < cfg.Iters; i++ {
					window()
				}
				elapsed = r.Now() - start
				r.FreeMem(buf)
			}
			win.Fence()
			if r.Rank() == 0 {
				bytes := float64(sz) * float64(cfg.Window) * float64(cfg.Iters)
				if bidir {
					bytes *= 2
				}
				out = append(out, Result{Bytes: sz, Value: bytes / elapsed.Seconds() / 1e6})
			}
		}
		return nil
	})
	return out, err
}
