package mpi

import (
	"fmt"
	"math/rand"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/sim"
)

// benchWorld builds a 2-rank world for the host-time channel benchmarks.
func benchWorld(b *testing.B, containers int, mode core.Mode) *World {
	b.Helper()
	spec := cluster.Spec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), containers, 2, cluster.PaperScenarioOpts())
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Mode = mode
	w, err := NewWorld(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// benchPingPong bounces b.N round trips between ranks 0 and 1 and reports
// host time and allocations per round trip. The reply bounds the in-flight
// window so the pools reach steady state.
func benchPingPong(b *testing.B, w *World, size int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	err := w.Run(func(r *Rank) error {
		buf := make([]byte, size)
		for i := 0; i < b.N; i++ {
			if r.Rank() == 0 {
				r.Send(1, 0, buf)
				r.Recv(1, 1, buf)
			} else {
				r.Recv(0, 0, buf)
				r.Send(0, 1, buf)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShmEagerPingPong is the pooled SHM eager hot path (one container,
// locality-aware: ring push + staged copy).
func BenchmarkShmEagerPingPong(b *testing.B) {
	benchPingPong(b, benchWorld(b, 1, core.ModeLocalityAware), 512)
}

// BenchmarkHCAEagerPingPong is the pooled HCA loopback hot path (two
// containers, default mode: wire header + bounce buffer per message).
func BenchmarkHCAEagerPingPong(b *testing.B) {
	benchPingPong(b, benchWorld(b, 2, core.ModeDefault), 512)
}

// BenchmarkShmRendezvousPingPong exercises the CMA rendezvous path with
// 64 KiB payloads (RTS/CTS control packets plus single-copy transfer).
func BenchmarkShmRendezvousPingPong(b *testing.B) {
	benchPingPong(b, benchWorld(b, 1, core.ModeLocalityAware), 64<<10)
}

// The data plane, layer by layer: every reduction kernel and codec at a
// cache-resident, an L2-sized and a gradient-sized payload, each next to the
// per-element loop it replaced (the oracles of datatype_test.go), so one
// `go test -bench 'ReduceOp|Codec'` prints old and new GB/s side by side.

var dataSizes = []struct {
	name  string
	bytes int
}{{"64B", 64}, {"16KiB", 16 << 10}, {"256KiB", 256 << 10}}

// benchWords returns n bytes of finite float64s of modest size: as int64s
// they are ordinary large integers, and a sum over b.N rounds stays finite.
func benchWords(rng *rand.Rand, n int) []byte {
	vals := make([]float64, n/8)
	for i := range vals {
		vals[i] = rng.Float64()*2 - 1
	}
	return refEncodeFloat64s(vals)
}

// BenchmarkReduceOp reduces the same src into the same dst b.N times. For
// the min/max ops that is the oracle's best case — after the first round its
// branch is never taken, is predicted perfectly and stores nothing — while
// the kernels select and store every word whatever the data.
func BenchmarkReduceOp(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, o := range reduceOps {
		for _, sz := range dataSizes {
			for _, side := range []struct {
				name string
				op   ReduceOp
			}{{"kernel", o.op}, {"ref", o.ref}} {
				dst, src := benchWords(rng, sz.bytes), benchWords(rng, sz.bytes)
				b.Run(o.name+"/"+sz.name+"/"+side.name, func(b *testing.B) {
					b.SetBytes(int64(sz.bytes))
					for i := 0; i < b.N; i++ {
						side.op(dst, src)
					}
				})
			}
		}
	}
}

// BenchmarkReduceOpFreshData is the other end of that for the three ops that
// compare: dst is refilled before every round (the copy is inside the timing
// on both sides), as it is in an allreduce, where every step reduces values
// just received. At 256 KiB the oracle's branch is then a coin toss no
// predictor can learn; the kernels' select does not care.
func BenchmarkReduceOpFreshData(b *testing.B) {
	const size = 256 << 10
	rng := rand.New(rand.NewSource(3))
	fresh, src, dst := benchWords(rng, size), benchWords(rng, size), make([]byte, size)
	for _, o := range reduceOps {
		if o.name != "MaxFloat64" && o.name != "MinInt64" && o.name != "MaxInt64" {
			continue
		}
		for _, side := range []struct {
			name string
			op   ReduceOp
		}{{"kernel", o.op}, {"ref", o.ref}} {
			b.Run(o.name+"/256KiB/"+side.name, func(b *testing.B) {
				b.SetBytes(size)
				for i := 0; i < b.N; i++ {
					copy(dst, fresh)
					side.op(dst, src)
				}
			})
		}
	}
}

// BenchmarkCodec: `kernel` and `ref` are the allocating wrapper and its
// oracle (both pay make plus first touch of the result, which is most of the
// time at 256 KiB); `reuse` is the append-style form into a buffer the
// caller kept, the way the in-tree loops call it.
func BenchmarkCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, sz := range dataSizes {
		raw := benchWords(rng, sz.bytes)
		fv, iv := refDecodeFloat64s(raw), refDecodeInt64s(raw)
		buf := make([]byte, 0, sz.bytes)
		fout, iout := make([]float64, 0, len(fv)), make([]int64, 0, len(iv))
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"EncodeFloat64s/" + sz.name + "/kernel", func() { sinkBytes = EncodeFloat64s(fv) }},
			{"EncodeFloat64s/" + sz.name + "/ref", func() { sinkBytes = refEncodeFloat64s(fv) }},
			{"EncodeFloat64s/" + sz.name + "/reuse", func() { buf = AppendFloat64s(buf[:0], fv) }},
			{"DecodeFloat64s/" + sz.name + "/kernel", func() { sinkFloats = DecodeFloat64s(raw) }},
			{"DecodeFloat64s/" + sz.name + "/ref", func() { sinkFloats = refDecodeFloat64s(raw) }},
			{"DecodeFloat64s/" + sz.name + "/reuse", func() { fout = DecodeFloat64sInto(fout[:0], raw) }},
			{"EncodeInt64s/" + sz.name + "/kernel", func() { sinkBytes = EncodeInt64s(iv) }},
			{"EncodeInt64s/" + sz.name + "/ref", func() { sinkBytes = refEncodeInt64s(iv) }},
			{"EncodeInt64s/" + sz.name + "/reuse", func() { buf = AppendInt64s(buf[:0], iv) }},
			{"DecodeInt64s/" + sz.name + "/kernel", func() { sinkInts = DecodeInt64s(raw) }},
			{"DecodeInt64s/" + sz.name + "/ref", func() { sinkInts = refDecodeInt64s(raw) }},
			{"DecodeInt64s/" + sz.name + "/reuse", func() { iout = DecodeInt64sInto(iout[:0], raw) }},
		} {
			b.Run(c.name, func(b *testing.B) {
				b.SetBytes(int64(sz.bytes))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.f()
				}
			})
		}
	}
}

// Results a benchmark must not let the compiler discard.
var (
	sinkBytes  []byte
	sinkFloats []float64
	sinkInts   []int64
)

// BenchmarkWorldColdWarm is what the process-wide depot (core/pool.go) and
// the engine store (sim/store.go) are for: one whole allreduce world per
// iteration — build, run, drain — on an empty depot and store and on those
// the previous world left. B/op is the figure to read; ns/op follows it by
// what the allocator, the zeroing and the first touch of those bytes cost.
func BenchmarkWorldColdWarm(b *testing.B) {
	for _, ranks := range []int{64, 1024} {
		spec := cluster.Spec{Hosts: ranks / 16, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
		d, err := cluster.Containers(cluster.MustNew(spec), 2, ranks, cluster.PaperScenarioOpts())
		if err != nil {
			b.Fatal(err)
		}
		// bench/'s scale-1024 job: Rabenseifner forced, because on a mostly
		// remote deployment the selector picks the ring, whose 2(n-1) steps
		// cost seconds of host time at 1024 ranks.
		opts := DefaultOptions()
		opts.Topology = peerScaleTopo
		opts.Tunables.AllreduceAlgo = core.AllreduceRabenseifner
		world := func() {
			w, err := NewWorld(d, opts)
			if err == nil {
				err = w.RunMachine(AllreduceProgram(1, 32<<10))
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, warm := range []bool{false, true} {
			name := fmt.Sprintf("ranks=%d/cold", ranks)
			if warm {
				name = fmt.Sprintf("ranks=%d/warm", ranks)
			}
			b.Run(name, func(b *testing.B) {
				core.DropDepot()
				sim.DropStore()
				if warm {
					world()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !warm {
						core.DropDepot()
						sim.DropStore()
					}
					world()
				}
			})
		}
	}
}
