package cmpi_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"cmpi"
)

// Build a 2-host cluster with two containers per host, run an 8-rank MPI
// job exercising point-to-point, collective, and one-sided communication,
// and print what the Container Locality Detector saw.
func Example_quickstart() {
	// A 2-host cluster with the paper's node hardware.
	spec := cmpi.ClusterSpec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	clu := cmpi.NewCluster(spec)

	// Two privileged containers per host sharing the host IPC/PID
	// namespaces (docker run --privileged --ipc=host --pid=host).
	deploy, err := cmpi.Containers(clu, 2, 8, cmpi.PaperScenarioOpts())
	if err != nil {
		log.Fatal(err)
	}

	// The paper's locality-aware library with tuned channel parameters.
	world, err := cmpi.NewWorld(deploy, cmpi.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	err = world.Run(func(r *cmpi.Rank) error {
		// Ring exchange: send to the right, receive from the left.
		right := (r.Rank() + 1) % r.Size()
		left := (r.Rank() - 1 + r.Size()) % r.Size()
		out := []byte(fmt.Sprintf("hi from %d", r.Rank()))
		in := make([]byte, 64)
		st := r.Sendrecv(right, 0, out, left, 0, in)
		fmt.Printf("rank %d on %-10s got %q from rank %d (co-resident ranks: %v)\n",
			r.Rank(), r.Hostname(), in[:st.Bytes], st.Source, r.LocalRanks())

		// A collective: global sum of ranks.
		sum := r.AllreduceInt64(int64(r.Rank()), cmpi.SumInt64)

		// One-sided: everyone deposits its rank into rank 0's window.
		win := r.WinCreate(make([]byte, r.Size()))
		win.Fence()
		win.Put(0, r.Rank(), []byte{byte(r.Rank() + 1)})
		win.Fence()
		win.Free()

		if r.Rank() == 0 {
			fmt.Printf("allreduce sum = %d, virtual time = %v\n", sum, r.Now())
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// rank 2 on host00-c1  got "hi from 1" from rank 1 (co-resident ranks: [0 1 2 3])
	// rank 5 on host01-c0  got "hi from 4" from rank 4 (co-resident ranks: [4 5 6 7])
	// rank 6 on host01-c1  got "hi from 5" from rank 5 (co-resident ranks: [4 5 6 7])
	// rank 1 on host00-c0  got "hi from 0" from rank 0 (co-resident ranks: [0 1 2 3])
	// rank 3 on host00-c1  got "hi from 2" from rank 2 (co-resident ranks: [0 1 2 3])
	// rank 7 on host01-c1  got "hi from 6" from rank 6 (co-resident ranks: [4 5 6 7])
	// rank 4 on host01-c0  got "hi from 3" from rank 3 (co-resident ranks: [4 5 6 7])
	// rank 0 on host00-c0  got "hi from 7" from rank 7 (co-resident ranks: [0 1 2 3])
	// allreduce sum = 28, virtual time = 192.074us
}

const (
	stencilN     = 512 // stencilN x stencilN interior points
	stencilIters = 60
)

// runStencil runs the heat-diffusion stencil of Example_stencil on 64 ranks
// and returns the final grid's checksum, the slowest rank's loop time and
// the communication share of the job.
func runStencil(opts cmpi.Options) (checksum float64, elapsed cmpi.Time, commShare float64) {
	clu := cmpi.NewCluster(cmpi.ClusterSpec{Hosts: 4, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
	deploy, err := cmpi.Containers(clu, 4, 64, cmpi.PaperScenarioOpts())
	if err != nil {
		log.Fatal(err)
	}
	opts.Profile = true
	world, err := cmpi.NewWorld(deploy, opts)
	if err != nil {
		log.Fatal(err)
	}
	err = world.Run(func(r *cmpi.Rank) error {
		rows := stencilN / r.Size()
		// Local stripe with two halo rows (index 0 and rows+1).
		cur := make([][]float64, rows+2)
		next := make([][]float64, rows+2)
		for i := range cur {
			cur[i] = make([]float64, stencilN)
			next[i] = make([]float64, stencilN)
		}
		// Hot left wall, deterministic interior bump.
		for i := 1; i <= rows; i++ {
			cur[i][0] = 100
			globalRow := r.Rank()*rows + i - 1
			cur[i][(globalRow*7)%stencilN] += float64(globalRow % 13)
		}
		up, down := r.Rank()-1, r.Rank()+1

		// One send row and one receive row (8*stencilN bytes) for every halo
		// exchange: Sendrecv is done with both when it returns.
		out, in := make([]byte, 0, 8*stencilN), make([]byte, 8*stencilN)

		start := r.Now()
		for it := 0; it < stencilIters; it++ {
			// Halo exchange with neighbors: encode into the kept bytes, decode
			// straight into the halo row.
			if up >= 0 {
				out = cmpi.AppendFloat64s(out[:0], cur[1])
				r.Sendrecv(up, 0, out, up, 1, in)
				cmpi.DecodeFloat64sInto(cur[0][:0], in)
			}
			if down < r.Size() {
				out = cmpi.AppendFloat64s(out[:0], cur[rows])
				r.Sendrecv(down, 1, out, down, 0, in)
				cmpi.DecodeFloat64sInto(cur[rows+1][:0], in)
			}
			// Jacobi update (runs for real; cost charged to virtual time).
			var diff float64
			for i := 1; i <= rows; i++ {
				for j := 0; j < stencilN; j++ {
					l, rr := 100.0, 0.0 // boundary values
					if j > 0 {
						l = cur[i][j-1]
					}
					if j < stencilN-1 {
						rr = cur[i][j+1]
					}
					upv, dnv := cur[i-1][j], cur[i+1][j]
					// Physical top/bottom walls are insulated: reuse self.
					if r.Rank() == 0 && i == 1 {
						upv = cur[i][j]
					}
					if r.Rank() == r.Size()-1 && i == rows {
						dnv = cur[i][j]
					}
					v := 0.25 * (l + rr + upv + dnv)
					next[i][j] = v
					diff += math.Abs(v - cur[i][j])
				}
			}
			r.Compute(float64(rows*stencilN) * 0.5) // vectorized 4-flop update
			cur, next = next, cur
			// Periodic global residual check.
			if it%10 == 9 {
				_ = r.AllreduceFloat64(diff, cmpi.SumFloat64)
			}
		}
		span := r.Now() - start
		var sum float64
		for i := 1; i <= rows; i++ {
			for j := 0; j < stencilN; j++ {
				sum += cur[i][j]
			}
		}
		total := r.AllreduceFloat64(sum, cmpi.SumFloat64)
		worst := r.AllreduceFloat64(span.Seconds(), cmpi.MaxFloat64)
		if r.Rank() == 0 {
			checksum = total
			elapsed = cmpi.TimeFromSeconds(worst)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return checksum, elapsed, world.Prof.CommFraction()
}

// A 2D heat-diffusion stencil with halo exchange, the archetypal HPC
// communication pattern: a nearest-neighbor Sendrecv every iteration and a
// global residual Allreduce every few.
//
// The domain is decomposed into row stripes across ranks; each iteration
// exchanges one halo row with each neighbor. On a multi-container host,
// neighbors are mostly co-resident, so the locality-aware library turns
// every halo exchange from an HCA-loopback crawl into a shared-memory hop.
// The example runs both modes, checks they converge to the same state, and
// reports the virtual-time difference.
func Example_stencil() {
	defSum, defTime, defComm := runStencil(cmpi.StockOptions())
	awareSum, awareTime, awareComm := runStencil(cmpi.DefaultOptions())
	if math.Abs(defSum-awareSum) > 1e-6 {
		log.Fatalf("states diverged: %v vs %v", defSum, awareSum)
	}
	fmt.Printf("2D heat stencil, %dx%d grid, 64 ranks / 4 containers x 4 hosts, %d iters\n",
		stencilN, stencilN, stencilIters)
	fmt.Printf("  default (hostname locality): %v  (%.0f%% comm)\n", defTime, defComm*100)
	fmt.Printf("  locality-aware:              %v  (%.0f%% comm)\n", awareTime, awareComm*100)
	fmt.Printf("  speedup %.2fx, identical checksum %.3f\n",
		defTime.Seconds()/awareTime.Seconds(), defSum)
	fmt.Println("\nHalo exchanges between co-resident containers ride SHM instead of")
	fmt.Println("the HCA loopback; the compute phase is untouched, so the speedup")
	fmt.Println("tracks the communication share (cf. the paper's EP vs CG spread).")
	// Output:
	// 2D heat stencil, 512x512 grid, 64 ranks / 4 containers x 4 hosts, 60 iters
	//   default (hostname locality): 2.267ms  (58% comm)
	//   locality-aware:              1.891ms  (48% comm)
	//   speedup 1.20x, identical checksum 209937.669
	//
	// Halo exchanges between co-resident containers ride SHM instead of
	// the HCA loopback; the compute phase is untouched, so the speedup
	// tracks the communication share (cf. the paper's EP vs CG spread).
}

// globalArray is a distributed float64 array over an RMA window.
type globalArray struct {
	r       *cmpi.Rank
	win     *cmpi.Win
	local   []byte
	perRank int
}

func newGlobalArray(r *cmpi.Rank, n int) *globalArray {
	perRank := (n + r.Size() - 1) / r.Size()
	g := &globalArray{r: r, local: make([]byte, perRank*8), perRank: perRank}
	g.win = r.WinCreate(g.local)
	g.win.Fence()
	return g
}

func (g *globalArray) owner(i int) (rank, off int) { return i / g.perRank, (i % g.perRank) * 8 }

func (g *globalArray) write(i int, v float64) {
	rank, off := g.owner(i)
	g.win.Put(rank, off, cmpi.EncodeFloat64(v))
	g.win.Flush()
}

func (g *globalArray) read(i int) float64 {
	rank, off := g.owner(i)
	buf := make([]byte, 8)
	g.win.Get(rank, off, buf)
	g.win.Flush()
	return cmpi.DecodeFloat64(buf)
}

// runGlobalArray runs the random-access phase of Example_pgas on 8 ranks and
// returns the sum of every value read and the slowest rank's access time.
func runGlobalArray(opts cmpi.Options) (checksum float64, elapsed cmpi.Time) {
	clu := cmpi.NewCluster(cmpi.ClusterSpec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
	deploy, err := cmpi.Containers(clu, 4, 8, cmpi.PaperScenarioOpts())
	if err != nil {
		log.Fatal(err)
	}
	world, err := cmpi.NewWorld(deploy, opts)
	if err != nil {
		log.Fatal(err)
	}
	const n = 1 << 12
	err = world.Run(func(r *cmpi.Rank) error {
		g := newGlobalArray(r, n)
		// Phase 1: every rank writes its own slice.
		for i := r.Rank() * g.perRank; i < (r.Rank()+1)*g.perRank && i < n; i++ {
			g.write(i, float64(i))
		}
		g.win.Fence()
		// Phase 2: random remote reads, deterministic per rank.
		rng := rand.New(rand.NewSource(int64(r.Rank()) + 7))
		start := r.Now()
		var sum float64
		const accesses = 400
		for k := 0; k < accesses; k++ {
			sum += g.read(rng.Intn(n))
		}
		span := r.Now() - start
		worst := r.AllreduceFloat64(span.Seconds(), cmpi.MaxFloat64)
		total := r.AllreduceFloat64(sum, cmpi.SumFloat64)
		g.win.Fence()
		g.win.Free()
		if r.Rank() == 0 {
			checksum = total
			elapsed = cmpi.TimeFromSeconds(worst)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return checksum, elapsed
}

// A PGAS-style global array over one-sided MPI, the paper's future-work
// direction ("exploring the performance characterization of other
// programming models (e.g. PGAS) in container-based HPC cloud").
//
// The global array partitions N float64 elements across all ranks and
// exposes location-transparent read/write by global index, implemented with
// RMA Put/Get. Under the locality-aware library, access to elements owned by
// co-resident containers rides shared memory / CMA; under the default
// library it crawls through the HCA loopback. The example measures random
// remote accesses in both modes on a 4-container host.
func Example_pgas() {
	defSum, defTime := runGlobalArray(cmpi.StockOptions())
	awareSum, awareTime := runGlobalArray(cmpi.DefaultOptions())
	if defSum != awareSum {
		log.Fatalf("checksums differ: %v vs %v", defSum, awareSum)
	}
	fmt.Printf("global-array random access, 8 ranks / 4 containers / 1 host\n")
	fmt.Printf("  default  (HCA loopback): %v for 400 accesses/rank\n", defTime)
	fmt.Printf("  aware    (SHM/CMA):      %v for 400 accesses/rank\n", awareTime)
	fmt.Printf("  speedup: %.1fx (checksum %.0f identical in both modes)\n",
		defTime.Seconds()/awareTime.Seconds(), defSum)
	// Output:
	// global-array random access, 8 ranks / 4 containers / 1 host
	//   default  (HCA loopback): 5.909ms for 400 accesses/rank
	//   aware    (SHM/CMA):      55.691us for 400 accesses/rank
	//   speedup: 106.1x (checksum 6511482 identical in both modes)
}
