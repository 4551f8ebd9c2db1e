// Command repro regenerates every table and figure of the paper's
// evaluation section on the simulated testbed.
//
// Usage:
//
//	repro               # run every experiment at Quick scale
//	repro -fig fig8     # one experiment
//	repro -full         # the paper's 16-host/256-rank geometry
//	repro -list         # list experiment ids
//	repro -j 4          # pin the sweep worker pool (default: GOMAXPROCS)
//	repro -sim-j 4      # pin the in-world epoch dispatch width (default: 1)
//	repro -bench-out BENCH_repro.json  # host-time benchmark snapshot
//	repro -bench-smoke                 # dispatch-width regression gate
//	repro -ranks 4096                  # scale-proxy allreduce on both engines
//	repro -scale-smoke                 # flat-engine scale gate (4096 ranks)
//	repro -fidelity-smoke              # full-fidelity machine-body gate (1024 and 4096 ranks)
//	repro -trace-out golden.trace      # record the canonical trace job
//	repro -replay golden.trace         # reconstruct counters from a trace
//	repro -trace-diff A.trace B.trace  # first divergent record, if any
//	repro -fault-seed 42               # seeded chaos hunt: fuzz, shrink, repro
//	repro -fig ext-faults -cpuprofile cpu.prof -memprofile mem.prof  # where host time and heap went
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"cmpi/internal/cluster"
	"cmpi/internal/experiments"
	"cmpi/internal/ib"
	"cmpi/internal/mpi"
	"cmpi/internal/profile"
	"cmpi/internal/sim"
	"cmpi/internal/trace"
)

func main() {
	figID := flag.String("fig", "all", "experiment id (fig1, fig3a, fig3bc, tableI, fig7a..c, fig8..12, ext-scaling, ext-scale, ext-faults, ext-recovery, ext-mltrain) or 'all'")
	full := flag.Bool("full", false, "run at the paper's full deployment geometry (slower)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text (for plotting)")
	workers := flag.Int("j", 0, "experiment sweep workers; 0 = CMPI_SWEEP_WORKERS env or GOMAXPROCS (tables are byte-identical for any value)")
	simWorkers := flag.Int("sim-j", 0, "epoch dispatch width inside each simulated world; 0 = CMPI_SIM_WORKERS env or 1 (results are byte-identical for any value)")
	benchOut := flag.String("bench-out", "", "write a host-time benchmark snapshot (JSON) to this file and exit")
	benchSmoke := flag.Bool("bench-smoke", false, "quick dispatch-width regression gate: fail unless the 64-rank allreduce (1 KiB at widths 2/4/8/N, 1 MiB at width N) keeps up with width 1 (25% tolerance)")
	traceOut := flag.String("trace-out", "", "record the canonical trace job to this file and exit")
	traceJob := flag.String("trace-job", "golden", "trace job for -trace-out: golden (16 ranks, trivial topology) or fattree (32 ranks on a 2-rack fat tree)")
	replay := flag.String("replay", "", "replay a recorded trace: reconstruct and print its counters, then exit")
	traceDiff := flag.Bool("trace-diff", false, "compare the two trace files given as arguments; exit 1 on divergence")
	faultSeed := flag.Int64("fault-seed", -1, "run the seeded chaos harness: fault.RandomPlan(seed) plus a crash, ddmin-shrunk to the minimal failing repro")
	ranks := flag.Int("ranks", 0, "run the scale-proxy allreduce at this many ranks on both simulator engines and report time/memory")
	scaleSmoke := flag.Bool("scale-smoke", false, "flat-engine scale gate: the 4096-rank allreduce must complete, agree with the goroutine engine, and use >=10x less accounted per-proc memory")
	fidelitySmoke := flag.Bool("fidelity-smoke", false, "full-fidelity scale gate: a real (non-proxy) 1024-rank world with machine-native rank bodies must complete on the flat engine with a >=5x accounted memory advantage over goroutine bodies, and the 4096-rank one inside 512 MiB of heap")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of whatever this invocation runs to this file (read with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile, taken as the run ends, to this file (go tool pprof -sample_index=alloc_space)")
	flag.Parse()
	defer startProfiles(*cpuProfile, *memProfile)()

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return
	}
	experiments.SetWorkers(*workers)
	if *simWorkers > 0 {
		// Engines read the width from the environment at construction, so
		// setting it here covers every world the experiments build.
		os.Setenv("CMPI_SIM_WORKERS", strconv.Itoa(*simWorkers))
	}

	if *benchOut != "" {
		if err := writeBenchSnapshot(*benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "bench-out: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *benchSmoke {
		if err := benchSmokeCheck(); err != nil {
			fmt.Fprintf(os.Stderr, "bench-smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *ranks > 0 {
		if err := scaleCompare(*ranks); err != nil {
			fmt.Fprintf(os.Stderr, "ranks: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *scaleSmoke {
		if err := scaleSmokeCheck(); err != nil {
			fmt.Fprintf(os.Stderr, "scale-smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *fidelitySmoke {
		if err := fidelitySmokeCheck(); err != nil {
			fmt.Fprintf(os.Stderr, "fidelity-smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *traceOut != "" {
		if err := recordGolden(*traceOut, *traceJob); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *replay != "" {
		if err := replayTrace(*replay); err != nil {
			fmt.Fprintf(os.Stderr, "replay: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *traceDiff {
		os.Exit(diffTraces(flag.Args()))
	}

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}

	if *faultSeed >= 0 {
		if err := experiments.Chaos(*faultSeed, scale, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "fault-seed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	run := func(e experiments.Experiment) {
		start := time.Now()
		tab, err := e.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s: %s\n", tab.ID, tab.Title)
			tab.RenderCSV(os.Stdout)
			fmt.Println()
			return
		}
		tab.Render(os.Stdout)
		fmt.Printf("  (generated in %.1fs host time)\n\n", time.Since(start).Seconds())
	}

	if *figID == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, ok := experiments.ByID(*figID)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *figID)
		os.Exit(2)
	}
	run(e)
}

// startProfiles starts the CPU profile, if asked for, and returns the function
// that stops it and writes the allocation profile, if asked for. With both
// paths empty neither does anything. A run that fails leaves through os.Exit
// and skips the deferred stop: the profiles describe runs that finished.
func startProfiles(cpuPath, memPath string) (stop func()) {
	fail := func(flagName string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", flagName, err)
		os.Exit(1)
	}
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fail("cpuprofile", err)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fail("cpuprofile", err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fail("memprofile", err)
		}
		runtime.GC() // the profile is complete only up to the last collection
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fail("memprofile", err)
		}
		if err := f.Close(); err != nil {
			fail("memprofile", err)
		}
	}
}

// recordGolden writes the selected golden trace job's v1 trace to path.
func recordGolden(path, job string) error {
	var rec func(io.Writer) error
	switch job {
	case "golden":
		rec = experiments.GoldenTrace
	case "fattree":
		rec = experiments.GoldenTraceFatTree
	default:
		return fmt.Errorf("unknown trace job %q: want golden or fattree", job)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// replayTrace reconstructs a recorded run's counters from its trace alone —
// no world is built, no rank goroutines run — and prints the summary.
func replayTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return err
	}
	trace.Replay(tr).Render(os.Stdout)
	return nil
}

// diffTraces compares two trace files and returns the process exit code:
// 0 when identical, 1 on divergence, 2 on usage or read errors.
func diffTraces(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: repro -trace-diff A.trace B.trace")
		return 2
	}
	read := func(path string) (*trace.Trace, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	}
	a, err := read(paths[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace-diff: %s: %v\n", paths[0], err)
		return 2
	}
	b, err := read(paths[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace-diff: %s: %v\n", paths[1], err)
		return 2
	}
	if d := trace.Diff(a, b); d != "" {
		fmt.Println(d)
		return 1
	}
	fmt.Println("traces identical")
	return 0
}

// benchSnapshot is the committed BENCH_repro.json format: host-time numbers
// for the full Quick-scale table regeneration (sequential vs parallel sweep)
// and the steady-state pt2pt hot path.
type benchSnapshot struct {
	GOOS           string  `json:"goos"`
	GOARCH         string  `json:"goarch"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	SweepWorkers   int     `json:"sweep_workers"`
	SequentialSec  float64 `json:"full_table_sequential_sec"`
	ParallelSec    float64 `json:"full_table_parallel_sec"`
	Speedup        float64 `json:"full_table_speedup"`
	PingPongNsMsg  float64 `json:"shm_pingpong_ns_per_msg"`
	PingPongAllocs float64 `json:"shm_pingpong_allocs_per_msg"`

	// 64-rank allreduce job at epoch dispatch widths 1/2/4/8/N: the in-world
	// parallel dispatch datapoints. A world collective couples every rank, so
	// epochs converge toward few groups and each width must at least keep up
	// with width 1 — these rows are the dispatch-overhead guard (the bench
	// smoke gate asserts every speedup ≥ 1 within tolerance). Real width
	// comes from the pairwise row below, where independence actually exists.
	SimWorkers         int     `json:"sim_workers"`
	Allreduce64Width1  float64 `json:"allreduce64_width1_sec"`
	Allreduce64Width2  float64 `json:"allreduce64_width2_sec"`
	Allreduce64Width4  float64 `json:"allreduce64_width4_sec"`
	Allreduce64Width8  float64 `json:"allreduce64_width8_sec"`
	Allreduce64WidthN  float64 `json:"allreduce64_widthN_sec"`
	Allreduce64Speedup float64 `json:"allreduce64_widthN_speedup"`
	// Scheduler health counters from the width-N allreduce run: pairs shed
	// by adaptive footprint decay, phase-change re-widens, and groups that
	// queued behind the worker pool (see profile.SimStats).
	Allreduce64Narrowed uint64 `json:"allreduce64_narrowed_pairs"`
	Allreduce64Rewidens uint64 `json:"allreduce64_phase_rewidens"`
	Allreduce64Stalls   uint64 `json:"allreduce64_barrier_stalls"`

	PairwiseWidth1        float64 `json:"pairwise64_width1_sec"`
	PairwiseWidthN        float64 `json:"pairwise64_widthN_sec"`
	PairwiseSpeedup       float64 `json:"pairwise64_speedup"`
	PairwiseMaxBatchWidth int     `json:"pairwise64_max_batch_width"`
	PairwiseNarrowed      uint64  `json:"pairwise64_narrowed_pairs"`

	// Scale-proxy points (mpi.RunScale, 1 MiB allreduce, 32 ranks/host on the
	// 8-host-rack fat tree): min-of-3 host seconds on the flat engine, plus
	// the accounted flat-vs-goroutine peak-memory ratio at 4096 ranks — the
	// flat engine's headline number. The virtual result is engine-invariant;
	// only host time is measured here.
	Scale256Sec       float64 `json:"scale_allreduce_256_sec"`
	Scale1024Sec      float64 `json:"scale_allreduce_1024_sec"`
	Scale4096Sec      float64 `json:"scale_allreduce_4096_sec"`
	Scale4096MemRatio float64 `json:"scale_allreduce_4096_mem_ratio"`

	// Full-fidelity 1024-rank point (no proxy: the real pt2pt protocol and
	// collective selector over the scale fat tree): host seconds for
	// machine-native rank bodies on the flat engine, and the accounted
	// peak-proc-memory ratio of blocking goroutine bodies over flat machine
	// bodies running the identical workload.
	Fidelity1024FlatSec  float64 `json:"fidelity_allreduce_1024_flat_sec"`
	Fidelity1024MemRatio float64 `json:"fidelity_allreduce_1024_mem_ratio"`
}

// scaleTopo is the fat tree the scale points run over (matches the ext-scale
// experiment): 8-host racks behind a two-stage spine.
var scaleTopo = ib.Topology{RackSize: 8, SpineStages: 2, SpinesPerStage: 4, HopLatency: 150 * sim.Nanosecond}

// scaleOpts is the canonical scale-point configuration at n ranks.
func scaleOpts(n int, flat bool) mpi.ScaleOptions {
	return mpi.ScaleOptions{Ranks: n, RanksPerHost: 32, Bytes: 1 << 20, Topology: scaleTopo, Flat: &flat}
}

// measureScale runs the n-rank scale point `rounds` times on the chosen
// engine and returns min host seconds plus the (identical) last result.
func measureScale(n int, flat bool, rounds int) (float64, *mpi.ScaleResult, error) {
	best := math.MaxFloat64
	var res *mpi.ScaleResult
	for i := 0; i < rounds; i++ {
		start := time.Now()
		r, err := mpi.RunScale(scaleOpts(n, flat))
		if err != nil {
			return 0, nil, err
		}
		if sec := time.Since(start).Seconds(); sec < best {
			best = sec
		}
		res = r
	}
	return best, res, nil
}

// scaleCompare runs one rank count on both engines and prints the report
// behind `repro -ranks N`.
func scaleCompare(n int) error {
	fSec, fRes, err := measureScale(n, true, 1)
	if err != nil {
		return fmt.Errorf("flat engine: %w", err)
	}
	gSec, gRes, err := measureScale(n, false, 1)
	if err != nil {
		return fmt.Errorf("goroutine engine: %w", err)
	}
	if fRes.Time != gRes.Time {
		return fmt.Errorf("engines diverged: flat %v vs goroutine %v", fRes.Time, gRes.Time)
	}
	fmt.Printf("scale allreduce: %d ranks, %d hosts, %d racks, algo %s\n", n, fRes.Hosts, fRes.Racks, fRes.Algo)
	fmt.Printf("  virtual completion: %.3f ms (identical on both engines)\n", fRes.Time.Millis())
	fmt.Printf("  flat engine:      %6.2fs host, peak %8d KiB accounted (arena %.0f%% utilized)\n",
		fSec, fRes.Sim.PeakProcBytes/1024, fRes.Sim.ArenaUtilization*100)
	fmt.Printf("  goroutine engine: %6.2fs host, peak %8d KiB accounted\n", gSec, gRes.Sim.PeakProcBytes/1024)
	fmt.Printf("  accounted memory ratio: %.1fx\n", float64(gRes.Sim.PeakProcBytes)/float64(fRes.Sim.PeakProcBytes))
	return nil
}

// scaleSmokeCheck is the CI scale gate: the 4096-rank point must complete on
// the flat engine, agree exactly with the goroutine engine, and carry a >=10x
// accounted memory advantage. No host-time threshold — CI budgets wall clock
// via its own timeout; this gate checks behavior, not speed.
func scaleSmokeCheck() error {
	const n = 4096
	fSec, fRes, err := measureScale(n, true, 1)
	if err != nil {
		return fmt.Errorf("flat engine: %w", err)
	}
	gSec, gRes, err := measureScale(n, false, 1)
	if err != nil {
		return fmt.Errorf("goroutine engine: %w", err)
	}
	fmt.Printf("scale4096 flat:      %.2fs host, virtual %.3f ms, peak %d KiB\n", fSec, fRes.Time.Millis(), fRes.Sim.PeakProcBytes/1024)
	fmt.Printf("scale4096 goroutine: %.2fs host, virtual %.3f ms, peak %d KiB\n", gSec, gRes.Time.Millis(), gRes.Sim.PeakProcBytes/1024)
	if fRes.Time != gRes.Time {
		return fmt.Errorf("engines diverged: flat %v vs goroutine %v", fRes.Time, gRes.Time)
	}
	ratio := float64(gRes.Sim.PeakProcBytes) / float64(fRes.Sim.PeakProcBytes)
	fmt.Printf("scale4096 accounted memory ratio: %.1fx\n", ratio)
	if ratio < 10 {
		return fmt.Errorf("flat engine memory advantage %.1fx, want >= 10x", ratio)
	}
	return nil
}

// Full-fidelity scale point: unlike the RunScale proxy above, this builds a
// real 1024-rank containerized world on the scale fat tree and runs the
// actual allreduce — eager/rendezvous pt2pt, the collective selector, spine
// footprints — with machine-native rank bodies (World.RunMachine) or the
// classic blocking goroutine bodies running the identical workload.
const (
	fidelityRanks = 1024
	fidelityIters = 2
	fidelityBytes = 1 << 10
	// fidelityBigRanks is the full-fidelity world ROADMAP's scale.go rule asks
	// about, and fidelityBigHeap the heap it must fit: the CI step's
	// GOMEMLIMIT, checked here because the limit itself is only a GC target.
	fidelityBigRanks = 4096
	fidelityBigHeap  = 512 << 20
)

// measureFidelity runs the full-fidelity point once at the given size and
// returns the run's host seconds plus engine stats. machine selects flat
// machine-native bodies; otherwise blocking goroutine bodies run the same
// workload.
func measureFidelity(ranks int, machine bool) (float64, profile.SimStats, error) {
	spec := cluster.Spec{Hosts: ranks / 16, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), 2, ranks, cluster.PaperScenarioOpts())
	if err != nil {
		return 0, profile.SimStats{}, err
	}
	opts := mpi.DefaultOptions()
	opts.Topology = scaleTopo
	w, err := mpi.NewWorld(d, opts)
	if err != nil {
		return 0, profile.SimStats{}, err
	}
	w.Eng.SetFlat(machine)
	start := time.Now()
	if machine {
		err = w.RunMachine(mpi.AllreduceProgram(fidelityIters, fidelityBytes))
	} else {
		err = w.Run(mpi.AllreduceWorkload(fidelityIters, fidelityBytes))
	}
	if err != nil {
		return 0, profile.SimStats{}, err
	}
	return time.Since(start).Seconds(), w.SimStats(), nil
}

// fidelitySmokeCheck is the CI full-fidelity scale gate: the 1024-rank
// machine-body world must complete on the flat engine (inside CI's
// GOMEMLIMIT/timeout budget) and hold a >=5x accounted peak-proc-memory
// advantage over blocking goroutine bodies, and the 4096-rank machine-body
// world must complete inside the same heap. Virtual completion times are NOT
// compared across body kinds: machine bodies execute their post-advance
// continuations within one dispatch turn, which legitimately shifts
// contended HCA interleavings (per-rank op multisets stay identical; see
// docs/PERFORMANCE.md).
func fidelitySmokeCheck() error {
	fSec, fStats, err := measureFidelity(fidelityRanks, true)
	if err != nil {
		return fmt.Errorf("machine bodies (flat): %w", err)
	}
	gSec, gStats, err := measureFidelity(fidelityRanks, false)
	if err != nil {
		return fmt.Errorf("goroutine bodies: %w", err)
	}
	fmt.Printf("fidelity1024 flat machine bodies: %.2fs host, peak %d KiB accounted (arena %.0f%% utilized)\n",
		fSec, fStats.PeakProcBytes/1024, fStats.ArenaUtilization*100)
	fmt.Printf("fidelity1024 goroutine bodies:    %.2fs host, peak %d KiB accounted\n", gSec, gStats.PeakProcBytes/1024)
	if fStats.PeakProcBytes == 0 || gStats.PeakProcBytes == 0 {
		return fmt.Errorf("missing peak accounting: flat=%d goroutine=%d", fStats.PeakProcBytes, gStats.PeakProcBytes)
	}
	ratio := float64(gStats.PeakProcBytes) / float64(fStats.PeakProcBytes)
	fmt.Printf("fidelity1024 accounted memory ratio: %.1fx\n", ratio)
	if ratio < 5 {
		return fmt.Errorf("full-fidelity memory advantage %.1fx, want >= 5x", ratio)
	}
	start := time.Now()
	bSec, _, err := measureFidelity(fidelityBigRanks, true)
	if err != nil {
		return fmt.Errorf("%d ranks, machine bodies (flat): %w", fidelityBigRanks, err)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	fmt.Printf("fidelity%d flat machine bodies: %.2fs host (%.2fs with deployment and NewWorld), HeapSys %d MiB\n",
		fidelityBigRanks, bSec, time.Since(start).Seconds(), m.HeapSys>>20)
	if m.HeapSys >= fidelityBigHeap {
		return fmt.Errorf("%d-rank full-fidelity world: HeapSys %d MiB, want < %d", fidelityBigRanks, m.HeapSys>>20, fidelityBigHeap>>20)
	}
	return nil
}

// regenAll runs every experiment at Quick scale and returns the wall time.
func regenAll() (float64, error) {
	start := time.Now()
	for _, e := range experiments.All() {
		if _, err := e.Run(experiments.Quick); err != nil {
			return 0, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return time.Since(start).Seconds(), nil
}

// measurePingPong runs rounds SHM eager round trips in one world and returns
// host nanoseconds and allocations per message (two messages per round trip).
func measurePingPong(rounds int) (nsPerMsg, allocsPerMsg float64, err error) {
	spec := cluster.Spec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), 1, 2, cluster.PaperScenarioOpts())
	if err != nil {
		return 0, 0, err
	}
	opts := mpi.DefaultOptions()
	w, err := mpi.NewWorld(d, opts)
	if err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = w.Run(func(r *mpi.Rank) error {
		buf := make([]byte, 512)
		for i := 0; i < rounds; i++ {
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
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, err
	}
	msgs := float64(2 * rounds)
	return float64(elapsed.Nanoseconds()) / msgs, float64(after.Mallocs-before.Mallocs) / msgs, nil
}

// world64 builds a 64-rank, 4-host containerized world with the epoch
// dispatch width pinned.
func world64(simWorkers int) (*mpi.World, error) {
	spec := cluster.Spec{Hosts: 4, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), 2, 64, cluster.PaperScenarioOpts())
	if err != nil {
		return nil, err
	}
	w, err := mpi.NewWorld(d, mpi.DefaultOptions())
	if err != nil {
		return nil, err
	}
	w.Eng.SetWorkers(simWorkers)
	return w, nil
}

// measureAllreduce64 times iters 64-rank allreduces of bytes each at the
// given dispatch width and returns host seconds plus the run's scheduler
// stats. 1 KiB exercises the recursive-doubling latency regime; 1 MiB the
// ring/Rabenseifner bandwidth regime the collective selector routes large
// messages onto.
func measureAllreduce64(simWorkers, iters, bytes int) (float64, profile.SimStats, error) {
	w, err := world64(simWorkers)
	if err != nil {
		return 0, profile.SimStats{}, err
	}
	start := time.Now()
	err = w.Run(func(r *mpi.Rank) error {
		buf := make([]byte, bytes)
		for i := 0; i < iters; i++ {
			r.Allreduce(buf, mpi.SumInt64)
		}
		return nil
	})
	if err != nil {
		return 0, profile.SimStats{}, err
	}
	return time.Since(start).Seconds(), w.SimStats(), nil
}

// measureAllreduceWidths times the 64-rank allreduce at each width and
// returns min-of-rounds host seconds per width plus each width's scheduler
// stats. Two defenses against host noise, because the snapshot gates
// width-vs-width ratios: the minimum over rounds measures the code rather
// than background load, and rounds are interleaved across widths (1, 2, ...,
// N, then again) so a slow host phase degrades every width equally instead
// of whichever width it happened to land on. Simulated results and stats
// are identical across rounds (determinism), so any round's stats are the
// run's stats.
func measureAllreduceWidths(widths []int, iters, rounds, bytes int) ([]float64, []profile.SimStats, error) {
	best := make([]float64, len(widths))
	stats := make([]profile.SimStats, len(widths))
	for i := range best {
		best[i] = math.MaxFloat64
	}
	for rep := 0; rep < rounds; rep++ {
		for i, wk := range widths {
			sec, st, err := measureAllreduce64(wk, iters, bytes)
			if err != nil {
				return nil, nil, err
			}
			if sec < best[i] {
				best[i] = sec
			}
			stats[i] = st
		}
	}
	return best, stats, nil
}

// measurePairwise64 times iters pairwise exchange rounds (rank <-> rank^1,
// same container: 32 causally independent pairs) at the given dispatch width.
// Returns host seconds and the run's scheduler stats (min-of-3; see
// bestAllreduce64 for why).
func measurePairwise64(simWorkers, iters int) (float64, profile.SimStats, error) {
	best := math.MaxFloat64
	var stats profile.SimStats
	for rep := 0; rep < 3; rep++ {
		w, err := world64(simWorkers)
		if err != nil {
			return 0, profile.SimStats{}, err
		}
		start := time.Now()
		err = w.Run(func(r *mpi.Rank) error {
			partner := r.Rank() ^ 1
			out := make([]byte, 4<<10)
			in := make([]byte, 4<<10)
			for i := 0; i < iters; i++ {
				r.Sendrecv(partner, 0, out, partner, 0, in)
			}
			return nil
		})
		if err != nil {
			return 0, profile.SimStats{}, err
		}
		if sec := time.Since(start).Seconds(); sec < best {
			best, stats = sec, w.SimStats()
		}
	}
	return best, stats, nil
}

func writeBenchSnapshot(path string) error {
	snap := benchSnapshot{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// Exercise at least 4 workers even on small hosts so the snapshot always
	// measures the parallel path; wall-clock gain tracks real core count.
	snap.SweepWorkers = experiments.Workers()
	if snap.SweepWorkers < 4 {
		snap.SweepWorkers = 4
	}
	fmt.Fprintln(os.Stderr, "regenerating all tables sequentially (workers=1)...")
	experiments.SetWorkers(1)
	seq, err := regenAll()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "  %.1fs; regenerating with %d workers...\n", seq, snap.SweepWorkers)
	experiments.SetWorkers(snap.SweepWorkers)
	par, err := regenAll()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "  %.1fs\n", par)
	snap.SequentialSec, snap.ParallelSec = seq, par
	if par > 0 {
		snap.Speedup = seq / par
	}
	if snap.PingPongNsMsg, snap.PingPongAllocs, err = measurePingPong(100000); err != nil {
		return err
	}
	snap.SimWorkers = runtime.GOMAXPROCS(0)
	if snap.SimWorkers < 4 {
		snap.SimWorkers = 4
	}
	fmt.Fprintf(os.Stderr, "64-rank dispatch-width points (widths 1/2/4/8/%d)...\n", snap.SimWorkers)
	arTimes, arStats, err := measureAllreduceWidths([]int{1, 2, 4, 8, snap.SimWorkers}, 200, 3, 1<<10)
	if err != nil {
		return err
	}
	snap.Allreduce64Width1 = arTimes[0]
	snap.Allreduce64Width2 = arTimes[1]
	snap.Allreduce64Width4 = arTimes[2]
	snap.Allreduce64Width8 = arTimes[3]
	snap.Allreduce64WidthN = arTimes[4]
	if snap.Allreduce64WidthN > 0 {
		snap.Allreduce64Speedup = snap.Allreduce64Width1 / snap.Allreduce64WidthN
	}
	snap.Allreduce64Narrowed = arStats[4].NarrowedPairs
	snap.Allreduce64Rewidens = arStats[4].PhaseRewidens
	snap.Allreduce64Stalls = arStats[4].BarrierStalls
	var pwStats profile.SimStats
	if snap.PairwiseWidth1, _, err = measurePairwise64(1, 2000); err != nil {
		return err
	}
	if snap.PairwiseWidthN, pwStats, err = measurePairwise64(snap.SimWorkers, 2000); err != nil {
		return err
	}
	snap.PairwiseMaxBatchWidth = pwStats.MaxBatchWidth
	snap.PairwiseNarrowed = pwStats.NarrowedPairs
	if snap.PairwiseWidthN > 0 {
		snap.PairwiseSpeedup = snap.PairwiseWidth1 / snap.PairwiseWidthN
	}
	fmt.Fprintln(os.Stderr, "scale-proxy points (256/1024/4096 ranks, min-of-3)...")
	if snap.Scale256Sec, _, err = measureScale(256, true, 3); err != nil {
		return err
	}
	if snap.Scale1024Sec, _, err = measureScale(1024, true, 3); err != nil {
		return err
	}
	var scaleRes *mpi.ScaleResult
	if snap.Scale4096Sec, scaleRes, err = measureScale(4096, true, 3); err != nil {
		return err
	}
	if _, gRes, err := measureScale(4096, false, 1); err != nil {
		return err
	} else if gRes.Time != scaleRes.Time {
		return fmt.Errorf("scale4096 engines diverged: flat %v vs goroutine %v", scaleRes.Time, gRes.Time)
	} else {
		snap.Scale4096MemRatio = float64(gRes.Sim.PeakProcBytes) / float64(scaleRes.Sim.PeakProcBytes)
	}
	fmt.Fprintln(os.Stderr, "full-fidelity 1024-rank point (machine vs goroutine bodies)...")
	fSec, fStats, err := measureFidelity(fidelityRanks, true)
	if err != nil {
		return err
	}
	_, gStats, err := measureFidelity(fidelityRanks, false)
	if err != nil {
		return err
	}
	snap.Fidelity1024FlatSec = fSec
	snap.Fidelity1024MemRatio = float64(gStats.PeakProcBytes) / float64(fStats.PeakProcBytes)
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %.1fs -> %.1fs (%.2fx), pt2pt %.0f ns/msg, %.3f allocs/msg, allreduce64 %.2fx, pairwise64 %.2fx at width %d\n",
		path, snap.SequentialSec, snap.ParallelSec, snap.Speedup, snap.PingPongNsMsg, snap.PingPongAllocs,
		snap.Allreduce64Speedup, snap.PairwiseSpeedup, snap.PairwiseMaxBatchWidth)
	return nil
}

// widthTolerance is how much slower than width 1 the bench-smoke gate lets a
// wider run be: 25%, the bound bench/ puts on host-clock timings on this class
// of box. It was 10% while every resume at width 1 paid a futex wake that
// wider runs dodged; since processes became coroutines width 1 pays none, and
// what a narrow epoch costs at width > 1 is the pool's own wake (one channel
// send per worker plus a WaitGroup): 5-17% on 2 vCPUs, with every absolute
// time lower (docs/PERFORMANCE.md, "Processes are coroutines").
const widthTolerance = 1.25

// benchSmokeCheck is the CI dispatch-width regression gate: a 64-rank
// allreduce must not run slower at any epoch dispatch width than at width 1,
// within widthTolerance. Before adaptive footprint decay the coupled
// collective collapsed into one group and paid pure coordination overhead at
// width N; the gate keeps that regression from coming back.
func benchSmokeCheck() error {
	widthN := runtime.GOMAXPROCS(0)
	if widthN < 4 {
		widthN = 4
	}
	widths := []int{1, 2, 4, 8}
	if widthN != 2 && widthN != 4 && widthN != 8 {
		widths = append(widths, widthN)
	}
	times, _, err := measureAllreduceWidths(widths, 100, 3, 1<<10)
	if err != nil {
		return err
	}
	base := times[0]
	fmt.Printf("allreduce64 width 1: %.3fs\n", base)
	for i, wk := range widths[1:] {
		sec := times[i+1]
		fmt.Printf("allreduce64 width %d: %.3fs (%.2fx)\n", wk, sec, base/sec)
		if sec > base*widthTolerance {
			return fmt.Errorf("allreduce64 at width %d took %.3fs, >%.0f%% slower than width 1 (%.3fs)", wk, sec, (widthTolerance-1)*100, base)
		}
	}
	// Large-message point: a 1 MiB allreduce rides the selector's bandwidth
	// regime (the ring on this spread 64-rank world) whose 2(P-1) chained
	// sendrecv steps stress the dispatcher very differently from the
	// log2(P)-round latency job above.
	largeWidths := []int{1, widthN}
	largeTimes, _, err := measureAllreduceWidths(largeWidths, 5, 3, 1<<20)
	if err != nil {
		return err
	}
	fmt.Printf("allreduce64-1MiB width 1: %.3fs\n", largeTimes[0])
	fmt.Printf("allreduce64-1MiB width %d: %.3fs (%.2fx)\n", widthN, largeTimes[1], largeTimes[0]/largeTimes[1])
	if largeTimes[1] > largeTimes[0]*widthTolerance {
		return fmt.Errorf("allreduce64-1MiB at width %d took %.3fs, >%.0f%% slower than width 1 (%.3fs)", widthN, largeTimes[1], (widthTolerance-1)*100, largeTimes[0])
	}
	return nil
}
