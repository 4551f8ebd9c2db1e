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
//	repro -ranks 4096                  # scale-proxy allreduce: virtual and host time
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
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cmpi/internal/experiments"
	"cmpi/internal/ib"
	"cmpi/internal/mpi"
	"cmpi/internal/sim"
	"cmpi/internal/trace"
)

func main() {
	figID := flag.String("fig", "all", "experiment id (fig1, fig3a, fig3bc, tableI, fig7a..c, fig8..12, ext-scaling, ext-scale, ext-faults, ext-recovery, ext-mltrain) or 'all'")
	full := flag.Bool("full", false, "run at the paper's full deployment geometry (slower)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text (for plotting)")
	workers := flag.Int("j", 0, "experiment sweep workers; 0 = CMPI_SWEEP_WORKERS env or GOMAXPROCS (tables are byte-identical for any value)")
	traceOut := flag.String("trace-out", "", "record the canonical trace job to this file and exit")
	traceJob := flag.String("trace-job", "golden", "trace job for -trace-out: golden (16 ranks, trivial topology) or fattree (32 ranks on a 2-rack fat tree)")
	replay := flag.String("replay", "", "replay a recorded trace: reconstruct and print its counters, then exit")
	traceDiff := flag.Bool("trace-diff", false, "compare the two trace files given as arguments; exit 1 on divergence")
	faultSeed := flag.Int64("fault-seed", -1, "run the seeded chaos harness: fault.RandomPlan(seed) plus a crash, ddmin-shrunk to the minimal failing repro")
	ranks := flag.Int("ranks", 0, "run the scale-proxy allreduce at this many ranks and report its virtual and host time")
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
	case *ranks > 0:
		fail("ranks", scaleReport(*ranks))
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
	fmt.Printf("  %.2fs host\n", time.Since(start).Seconds())
	return nil
}
