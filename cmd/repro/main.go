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
//	repro -replay golden.trace         # reconstruct counters from a trace; fails on anomalies
//	repro -trace-diff A.trace B.trace  # first divergent record, if any
//	repro -fault-seed 42               # seeded chaos hunt: fuzz, shrink, repro
//	repro -fig ext-faults -cpuprofile cpu.prof -memprofile mem.prof  # where host time and heap went
package main

import (
	"errors"
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

// errDiverged is run's error when -trace-diff finds the two traces differ.
// The first divergent record has already been written to stdout.
var errDiverged = errors.New("traces diverge")

// usageError is input run cannot act on: a bad flag, an unknown experiment,
// or -trace-diff files it cannot read. main exits 2 on it, as flag does.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var usage usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errDiverged):
		os.Exit(1)
	case errors.As(err, &usage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args, runs the one mode they select and writes its report to
// stdout. The first mode flag set wins, in the order of the switch below.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figID := fs.String("fig", "all", "experiment id (fig1, fig3a, fig3bc, tableI, fig7a..c, fig8..12, ext-scaling, ext-scale, ext-faults, ext-recovery, ext-mltrain) or 'all'")
	full := fs.Bool("full", false, "run at the paper's full deployment geometry (slower)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text (for plotting)")
	workers := fs.Int("j", 0, "experiment sweep workers; 0 = GOMAXPROCS, capped by available memory (tables are byte-identical for any value)")
	traceOut := fs.String("trace-out", "", "record the canonical trace job to this file and exit")
	traceJob := fs.String("trace-job", "golden", "trace job for -trace-out: golden (16 ranks, trivial topology) or fattree (32 ranks on a 2-rack fat tree)")
	replay := fs.String("replay", "", "replay a recorded trace: reconstruct and print its counters, then exit")
	traceDiff := fs.Bool("trace-diff", false, "compare the two trace files given as arguments; exit 1 on divergence")
	faultSeed := fs.Int64("fault-seed", -1, "run the seeded chaos harness: fault.RandomPlan(seed) plus a crash, ddmin-shrunk to the minimal failing repro")
	ranks := fs.Int("ranks", 0, "run the scale-proxy allreduce at this many ranks and report its virtual and host time")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of whatever this invocation runs to this file (read with go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation profile, taken as the run ends, to this file (go tool pprof -sample_index=alloc_space)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	switch {
	case *workers < 0:
		return usageError{fmt.Errorf("-j %d: want a worker count, or 0 for GOMAXPROCS", *workers)}
	case *ranks < 0:
		return usageError{fmt.Errorf("-ranks %d: want a rank count, or 0 for none", *ranks)}
	case *faultSeed < -1:
		return usageError{fmt.Errorf("-fault-seed %d: want a seed of 0 or more, or -1 for none", *faultSeed)}
	}
	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintln(stdout, e.ID)
		}
		return nil
	}
	experiments.SetWorkers(*workers)
	defer experiments.SetWorkers(0)
	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	runOne := func(e experiments.Experiment) error {
		start := time.Now()
		tab, err := e.Run(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *csv {
			fmt.Fprintf(stdout, "# %s: %s\n", tab.ID, tab.Title)
			tab.RenderCSV(stdout)
			fmt.Fprintln(stdout)
			return nil
		}
		tab.Render(stdout)
		fmt.Fprintf(stdout, "  (generated in %.1fs host time)\n\n", time.Since(start).Seconds())
		return nil
	}
	// mode names a failing mode's error, as main prints it.
	mode := func(name string, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	switch {
	case *ranks > 0:
		return mode("ranks", scaleReport(*ranks, stdout))
	case *traceOut != "":
		return mode("trace-out", recordGolden(*traceOut, *traceJob, stderr))
	case *replay != "":
		// A recorded run's counters from its trace alone: no world is built.
		// Unmatched sends are legal (a failed recording has them); records
		// that break the credit rules are not.
		tr, err := readTrace(*replay)
		if err != nil {
			return mode("replay", err)
		}
		s := trace.Replay(tr)
		s.Render(stdout)
		if s.Anomalies > 0 {
			return mode("replay", fmt.Errorf("%d anomalies: records that break the credit rules", s.Anomalies))
		}
		return nil
	case *traceDiff:
		return diffTraces(fs.Args(), stdout)
	case *faultSeed >= 0:
		return mode("fault-seed", experiments.Chaos(*faultSeed, scale, stdout))
	case *figID == "all":
		for _, e := range experiments.All() {
			if err := runOne(e); err != nil {
				return err
			}
		}
		return nil
	default:
		e, ok := experiments.ByID(*figID)
		if !ok {
			return usageError{fmt.Errorf("unknown experiment %q; use -list", *figID)}
		}
		return runOne(e)
	}
}

// startProfiles starts the CPU profile, if asked for, and returns the function
// that stops it and writes the allocation profile, if asked for. With both
// paths empty neither does anything.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // the profile is complete only up to the last collection
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}

// recordGolden writes the selected golden trace job's v1 trace to path and
// says so on stderr.
func recordGolden(path, job string, stderr io.Writer) error {
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
	fmt.Fprintf(stderr, "wrote %s\n", path)
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

// diffTraces compares two trace files and writes the first divergent record,
// or that they are identical, to stdout. It returns errDiverged when they
// differ, and a usageError when it is not given two readable traces.
func diffTraces(paths []string, stdout io.Writer) error {
	if len(paths) != 2 {
		return usageError{errors.New("usage: repro -trace-diff A.trace B.trace")}
	}
	var trs [2]*trace.Trace
	for i, path := range paths {
		var err error
		if trs[i], err = readTrace(path); err != nil {
			return usageError{fmt.Errorf("trace-diff: %s: %w", path, err)}
		}
	}
	if d := trace.Diff(trs[0], trs[1]); d != "" {
		fmt.Fprintln(stdout, d)
		return errDiverged
	}
	fmt.Fprintln(stdout, "traces identical")
	return nil
}

// scaleTopo is the fat tree the scale points run over (matches the ext-scale
// experiment): 8-host racks behind a two-stage spine.
var scaleTopo = ib.Topology{RackSize: 8, SpineStages: 2, SpinesPerStage: 4, HopLatency: 150 * sim.Nanosecond}

// scaleReport runs the scale-proxy allreduce (1 MiB, 32 ranks/host) at n
// ranks and writes the report behind `repro -ranks N`.
func scaleReport(n int, stdout io.Writer) error {
	start := time.Now()
	res, err := mpi.RunScale(mpi.ScaleOptions{Ranks: n, RanksPerHost: 32, Bytes: 1 << 20, Topology: scaleTopo})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "scale allreduce: %d ranks, %d hosts, %d racks\n", n, res.Hosts, res.Racks)
	fmt.Fprintf(stdout, "  virtual completion: %.3f ms\n", res.Time.Millis())
	fmt.Fprintf(stdout, "  %.2fs host\n", time.Since(start).Seconds())
	return nil
}
