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
//	repro -bench-smoke                 # dispatch-width regression gate
//	repro -ranks 4096                  # scale-proxy allreduce: time and memory
//	repro -fidelity-smoke              # full-fidelity machine-body gate (1024 and 4096 ranks)
//	repro -trace-out golden.trace      # record the canonical trace job
//	repro -replay golden.trace         # reconstruct counters from a trace
//	repro -trace-diff A.trace B.trace  # first divergent record, if any
//	repro -fault-seed 42               # seeded chaos hunt: fuzz, shrink, repro
//	repro -fig ext-faults -cpuprofile cpu.prof -memprofile mem.prof  # where host time and heap went
package main

import (
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
	benchSmoke := flag.Bool("bench-smoke", false, "quick dispatch-width regression gate: fail unless the 64-rank allreduce (1 KiB at widths 2/4/8/N, 1 MiB at width N) keeps up with width 1 (25% tolerance)")
	traceOut := flag.String("trace-out", "", "record the canonical trace job to this file and exit")
	traceJob := flag.String("trace-job", "golden", "trace job for -trace-out: golden (16 ranks, trivial topology) or fattree (32 ranks on a 2-rack fat tree)")
	replay := flag.String("replay", "", "replay a recorded trace: reconstruct and print its counters, then exit")
	traceDiff := flag.Bool("trace-diff", false, "compare the two trace files given as arguments; exit 1 on divergence")
	faultSeed := flag.Int64("fault-seed", -1, "run the seeded chaos harness: fault.RandomPlan(seed) plus a crash, ddmin-shrunk to the minimal failing repro")
	ranks := flag.Int("ranks", 0, "run the scale-proxy allreduce at this many ranks and report time/memory")
	fidelitySmoke := flag.Bool("fidelity-smoke", false, "full-fidelity scale gate: a real (non-proxy) 1024-rank world with machine-native rank bodies must complete with a >=5x accounted memory advantage over blocking bodies, and the 4096-rank one inside 512 MiB of heap")
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
	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	// fail ends the process when a mode's err is set; the first mode flag set
	// wins, in the order below.
	fail := func(mode string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", mode, err)
			os.Exit(1)
		}
	}
	run := func(e experiments.Experiment) {
		start := time.Now()
		tab, err := e.Run(scale)
		fail(e.ID, err)
		if *csv {
			fmt.Printf("# %s: %s\n", tab.ID, tab.Title)
			tab.RenderCSV(os.Stdout)
			fmt.Println()
			return
		}
		tab.Render(os.Stdout)
		fmt.Printf("  (generated in %.1fs host time)\n\n", time.Since(start).Seconds())
	}

	switch {
	case *benchSmoke:
		fail("bench-smoke", benchSmokeCheck())
	case *ranks > 0:
		fail("ranks", scaleReport(*ranks))
	case *fidelitySmoke:
		fail("fidelity-smoke", fidelitySmokeCheck())
	case *traceOut != "":
		fail("trace-out", recordGolden(*traceOut, *traceJob))
	case *replay != "":
		// A recorded run's counters from its trace alone: no world is built.
		tr, err := readTrace(*replay)
		fail("replay", err)
		trace.Replay(tr).Render(os.Stdout)
	case *traceDiff:
		os.Exit(diffTraces(flag.Args()))
	case *faultSeed >= 0:
		fail("fault-seed", experiments.Chaos(*faultSeed, scale, os.Stdout))
	case *figID == "all":
		for _, e := range experiments.All() {
			run(e)
		}
	default:
		e, ok := experiments.ByID(*figID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *figID)
			os.Exit(2)
		}
		run(e)
	}
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

// readTrace reads a trace file.
func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

// diffTraces compares two trace files and returns the process exit code:
// 0 when identical, 1 on divergence, 2 on usage or read errors.
func diffTraces(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: repro -trace-diff A.trace B.trace")
		return 2
	}
	var trs [2]*trace.Trace
	for i, path := range paths {
		var err error
		if trs[i], err = readTrace(path); err != nil {
			fmt.Fprintf(os.Stderr, "trace-diff: %s: %v\n", path, err)
			return 2
		}
	}
	if d := trace.Diff(trs[0], trs[1]); d != "" {
		fmt.Println(d)
		return 1
	}
	fmt.Println("traces identical")
	return 0
}

// scaleTopo is the fat tree the scale points run over (matches the ext-scale
// experiment): 8-host racks behind a two-stage spine.
var scaleTopo = ib.Topology{RackSize: 8, SpineStages: 2, SpinesPerStage: 4, HopLatency: 150 * sim.Nanosecond}

// scaleReport runs the scale-proxy allreduce (1 MiB, 32 ranks/host) at n
// ranks and prints the report behind `repro -ranks N`.
func scaleReport(n int) error {
	start := time.Now()
	res, err := mpi.RunScale(mpi.ScaleOptions{Ranks: n, RanksPerHost: 32, Bytes: 1 << 20, Topology: scaleTopo})
	if err != nil {
		return err
	}
	fmt.Printf("scale allreduce: %d ranks, %d hosts, %d racks, algo %s\n", n, res.Hosts, res.Racks, res.Algo)
	fmt.Printf("  virtual completion: %.3f ms\n", res.Time.Millis())
	fmt.Printf("  %.2fs host, peak %d KiB accounted (arena %.0f%% utilized)\n",
		time.Since(start).Seconds(), res.Sim.PeakProcBytes/1024, res.Sim.ArenaUtilization*100)
	return nil
}

// Full-fidelity scale point: unlike the RunScale proxy above, this builds a
// real 1024-rank containerized world on the scale fat tree and runs the
// actual allreduce — eager/rendezvous pt2pt, the collective selector, spine
// footprints — with machine-native rank bodies (World.RunMachine) or
// blocking bodies running the identical workload.
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
// returns the run's host seconds plus engine stats. machine selects
// machine-native bodies; otherwise blocking bodies run the same workload.
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
// machine-body world must complete (inside CI's GOMEMLIMIT/timeout budget)
// and hold a >=5x accounted peak-proc-memory advantage over blocking
// bodies, and the 4096-rank machine-body
// world must complete inside the same heap. Virtual completion times are NOT
// compared across body kinds: machine bodies execute their post-advance
// continuations within one dispatch turn, which legitimately shifts
// contended HCA interleavings (per-rank op multisets stay identical; see
// docs/PERFORMANCE.md).
func fidelitySmokeCheck() error {
	mSec, mStats, err := measureFidelity(fidelityRanks, true)
	if err != nil {
		return fmt.Errorf("machine bodies: %w", err)
	}
	bSec, bStats, err := measureFidelity(fidelityRanks, false)
	if err != nil {
		return fmt.Errorf("blocking bodies: %w", err)
	}
	fmt.Printf("fidelity1024 machine bodies:  %.2fs host, peak %d KiB accounted (arena %.0f%% utilized)\n",
		mSec, mStats.PeakProcBytes/1024, mStats.ArenaUtilization*100)
	fmt.Printf("fidelity1024 blocking bodies: %.2fs host, peak %d KiB accounted\n", bSec, bStats.PeakProcBytes/1024)
	if mStats.PeakProcBytes == 0 || bStats.PeakProcBytes == 0 {
		return fmt.Errorf("missing peak accounting: machine=%d blocking=%d", mStats.PeakProcBytes, bStats.PeakProcBytes)
	}
	ratio := float64(bStats.PeakProcBytes) / float64(mStats.PeakProcBytes)
	fmt.Printf("fidelity1024 accounted memory ratio: %.1fx\n", ratio)
	if ratio < 5 {
		return fmt.Errorf("full-fidelity memory advantage %.1fx, want >= 5x", ratio)
	}
	start := time.Now()
	bigSec, _, err := measureFidelity(fidelityBigRanks, true)
	if err != nil {
		return fmt.Errorf("%d ranks, machine bodies: %w", fidelityBigRanks, err)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	fmt.Printf("fidelity%d machine bodies: %.2fs host (%.2fs with deployment and NewWorld), HeapSys %d MiB\n",
		fidelityBigRanks, bigSec, time.Since(start).Seconds(), m.HeapSys>>20)
	if m.HeapSys >= fidelityBigHeap {
		return fmt.Errorf("%d-rank full-fidelity world: HeapSys %d MiB, want < %d", fidelityBigRanks, m.HeapSys>>20, fidelityBigHeap>>20)
	}
	return nil
}

// measureAllreduce64 times iters allreduces of bytes each on a 64-rank,
// 4-host containerized world at the given dispatch width and returns host
// seconds. 1 KiB exercises the recursive-doubling latency regime; 1 MiB the
// ring/Rabenseifner bandwidth regime the collective selector routes large
// messages onto.
func measureAllreduce64(simWorkers, iters, bytes int) (float64, error) {
	spec := cluster.Spec{Hosts: 4, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), 2, 64, cluster.PaperScenarioOpts())
	if err != nil {
		return 0, err
	}
	w, err := mpi.NewWorld(d, mpi.DefaultOptions())
	if err != nil {
		return 0, err
	}
	w.Eng.SetWorkers(simWorkers)
	start := time.Now()
	err = w.Run(func(r *mpi.Rank) error {
		buf := make([]byte, bytes)
		for i := 0; i < iters; i++ {
			r.Allreduce(buf, mpi.SumInt64)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// widthTolerance is how much slower than width 1 the bench-smoke gate lets a
// wider run be: 25%, the bound bench/ puts on host-clock timings on this class
// of box. It was 10% while every resume at width 1 paid a futex wake that
// wider runs dodged; since processes became coroutines width 1 pays none, and
// what a narrow epoch costs at width > 1 is the pool's own wake (one channel
// send per worker plus a WaitGroup): 5-17% on 2 vCPUs, with every absolute
// time lower (docs/perf/PR-19.md).
const widthTolerance = 1.25

// widthGate times the 64-rank allreduce of bytes, iters per run, at each
// of widths (widths[0] is 1) and fails if a wider run is slower than width 1
// by more than widthTolerance. Two defenses against host noise, because the
// gate compares width-vs-width ratios: the minimum over three rounds
// measures the code rather than background load, and rounds are interleaved
// across widths (1, 2, ..., N, then again) so a slow host phase degrades
// every width equally instead of whichever width it happened to land on.
func widthGate(name string, widths []int, iters, bytes int) error {
	best := make([]float64, len(widths))
	for i := range best {
		best[i] = math.MaxFloat64
	}
	for rep := 0; rep < 3; rep++ {
		for i, wk := range widths {
			sec, err := measureAllreduce64(wk, iters, bytes)
			if err != nil {
				return err
			}
			best[i] = min(best[i], sec)
		}
	}
	base := best[0]
	fmt.Printf("%s width 1: %.3fs\n", name, base)
	for i, wk := range widths[1:] {
		sec := best[i+1]
		fmt.Printf("%s width %d: %.3fs (%.2fx)\n", name, wk, sec, base/sec)
		if sec > base*widthTolerance {
			return fmt.Errorf("%s at width %d took %.3fs, >%.0f%% slower than width 1 (%.3fs)", name, wk, sec, (widthTolerance-1)*100, base)
		}
	}
	return nil
}

// benchSmokeCheck is the CI dispatch-width regression gate: a 64-rank
// allreduce must not run slower at any epoch dispatch width than at width 1,
// within widthTolerance. Before adaptive footprint decay the coupled
// collective collapsed into one group and paid pure coordination overhead at
// width N; the gate keeps that regression from coming back.
func benchSmokeCheck() error {
	widthN := max(runtime.GOMAXPROCS(0), 4)
	widths := []int{1, 2, 4, 8}
	if widthN != 2 && widthN != 4 && widthN != 8 {
		widths = append(widths, widthN)
	}
	if err := widthGate("allreduce64", widths, 100, 1<<10); err != nil {
		return err
	}
	// Large-message point: a 1 MiB allreduce rides the selector's bandwidth
	// regime (the ring on this spread 64-rank world) whose 2(P-1) chained
	// sendrecv steps stress the dispatcher very differently from the
	// log2(P)-round latency job above.
	return widthGate("allreduce64-1MiB", []int{1, widthN}, 5, 1<<20)
}
