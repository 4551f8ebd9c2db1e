// 2D heat-diffusion stencil with halo exchange — the archetypal HPC
// communication pattern (nearest-neighbor Sendrecv every iteration, one
// global residual Allreduce every few iterations).
//
// The domain is decomposed into row stripes across ranks; each iteration
// exchanges one halo row with each neighbor. On a multi-container host,
// neighbors are mostly co-resident, so the locality-aware library turns
// every halo exchange from an HCA-loopback crawl into a shared-memory hop.
// The demo runs both modes, checks they converge to the same state, and
// reports the virtual-time difference.
package main

import (
	"fmt"
	"log"
	"math"

	"cmpi"
)

const (
	gridN = 512 // gridN x gridN interior points
	iters = 60
)

func run(opts cmpi.Options) (checksum float64, elapsed cmpi.Time, commShare float64) {
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
		rows := gridN / r.Size()
		// Local stripe with two halo rows (index 0 and rows+1).
		cur := make([][]float64, rows+2)
		next := make([][]float64, rows+2)
		for i := range cur {
			cur[i] = make([]float64, gridN)
			next[i] = make([]float64, gridN)
		}
		// Hot left wall, deterministic interior bump.
		for i := 1; i <= rows; i++ {
			cur[i][0] = 100
			globalRow := r.Rank()*rows + i - 1
			cur[i][(globalRow*7)%gridN] += float64(globalRow % 13)
		}
		up, down := r.Rank()-1, r.Rank()+1

		// One send row and one receive row (8*gridN bytes) for every halo
		// exchange: Sendrecv is done with both when it returns.
		out, in := make([]byte, 0, 8*gridN), make([]byte, 8*gridN)

		start := r.Now()
		for it := 0; it < iters; it++ {
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
				for j := 0; j < gridN; j++ {
					l, rr := 100.0, 0.0 // boundary values
					if j > 0 {
						l = cur[i][j-1]
					}
					if j < gridN-1 {
						rr = cur[i][j+1]
					}
					upv, dnv := cur[i-1][j], cur[i+1][j]
					if (r.Rank() == 0 && i == 1) || (r.Rank() == r.Size()-1 && i == rows) {
						// Physical top/bottom walls are insulated: reuse self.
						if r.Rank() == 0 && i == 1 {
							upv = cur[i][j]
						}
						if r.Rank() == r.Size()-1 && i == rows {
							dnv = cur[i][j]
						}
					}
					v := 0.25 * (l + rr + upv + dnv)
					next[i][j] = v
					diff += math.Abs(v - cur[i][j])
				}
			}
			r.Compute(float64(rows*gridN) * 0.5) // vectorized 4-flop update
			cur, next = next, cur
			// Periodic global residual check.
			if it%10 == 9 {
				_ = r.AllreduceFloat64(diff, cmpi.SumFloat64)
			}
		}
		span := r.Now() - start
		var sum float64
		for i := 1; i <= rows; i++ {
			for j := 0; j < gridN; j++ {
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

func main() {
	defSum, defTime, defComm := run(cmpi.StockOptions())
	awareSum, awareTime, awareComm := run(cmpi.DefaultOptions())
	if math.Abs(defSum-awareSum) > 1e-6 {
		log.Fatalf("states diverged: %v vs %v", defSum, awareSum)
	}
	fmt.Printf("2D heat stencil, %dx%d grid, 64 ranks / 4 containers x 4 hosts, %d iters\n",
		gridN, gridN, iters)
	fmt.Printf("  default (hostname locality): %v  (%.0f%% comm)\n", defTime, defComm*100)
	fmt.Printf("  locality-aware:              %v  (%.0f%% comm)\n", awareTime, awareComm*100)
	fmt.Printf("  speedup %.2fx, identical checksum %.3f\n",
		defTime.Seconds()/awareTime.Seconds(), defSum)
	fmt.Println("\nHalo exchanges between co-resident containers ride SHM instead of")
	fmt.Println("the HCA loopback; the compute phase is untouched, so the speedup")
	fmt.Println("tracks the communication share (cf. the paper's EP vs CG spread).")
}
