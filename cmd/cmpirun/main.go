// Command cmpirun launches one MPI workload on a simulated container
// deployment, like mpirun_rsh would on the paper's testbed: an application
// (Graph 500, an NPB kernel, hello) or one OSU-style micro-benchmark.
//
// Examples:
//
//	cmpirun -workload graph500 -hosts 1 -containers 4 -procs 16 -mode default
//	cmpirun -workload cg -class W -hosts 4 -containers 2 -procs 32 -mode aware -profile
//	cmpirun -workload osu-latency -mode default                  # HCA loopback (paper's Def)
//	cmpirun -workload osu-put_bw -containers 0                   # native pair
//	cmpirun -workload osu-allreduce -hosts 4 -containers 4 -procs 32
//
// The pair benchmarks (osu-latency, -bw, -bibw, -mr, -put_*, -get_*) run two
// ranks on one host: two containers, or native processes under
// -containers 0. osu-mbw and the collectives run on the deployment that
// -hosts, -containers and -procs describe.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cmpi"
	"cmpi/internal/osu"
)

func main() {
	env := map[string]string{}
	for _, kv := range os.Environ() {
		if k, v, ok := strings.Cut(kv, "="); ok {
			env[k] = v
		}
	}
	if err := run(os.Args[1:], env, os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "cmpirun:", err)
		os.Exit(1)
	}
}

var npbKernels = map[string]func(*cmpi.World, cmpi.NPBClass) (cmpi.NPBResult, error){
	"ep": cmpi.RunEP, "cg": cmpi.RunCG, "ft": cmpi.RunFT, "is": cmpi.RunIS, "mg": cmpi.RunMG,
}

// osuBench is one OSU micro-benchmark: the unit it reports and whether it
// runs on a two-rank pair rather than on the whole deployment.
type osuBench struct {
	unit string
	pair bool
	run  func(*cmpi.World, []int, cmpi.OSUConfig) (cmpi.OSUSeries, error)
}

var osuBenches = map[string]osuBench{
	"latency":   {"us", true, cmpi.OSULatency},
	"bw":        {"MB/s", true, cmpi.OSUBandwidth},
	"bibw":      {"MB/s", true, cmpi.OSUBiBandwidth},
	"mr":        {"msg/s", true, cmpi.OSUMessageRate},
	"mbw":       {"MB/s", false, osu.MultiPairBandwidth},
	"put_lat":   {"us", true, cmpi.OSUPutLatency},
	"put_bw":    {"MB/s", true, cmpi.OSUPutBandwidth},
	"put_bibw":  {"MB/s", true, cmpi.OSUPutBiBandwidth},
	"get_lat":   {"us", true, cmpi.OSUGetLatency},
	"get_bw":    {"MB/s", true, cmpi.OSUGetBandwidth},
	"bcast":     {"us", false, collective(osu.Bcast)},
	"allreduce": {"us", false, collective(osu.Allreduce)},
	"allgather": {"us", false, collective(osu.Allgather)},
	"alltoall":  {"us", false, collective(osu.Alltoall)},
}

func collective(kind osu.CollectiveKind) func(*cmpi.World, []int, cmpi.OSUConfig) (cmpi.OSUSeries, error) {
	return func(w *cmpi.World, sizes []int, cfg cmpi.OSUConfig) (cmpi.OSUSeries, error) {
		return osu.Collective(w, kind, sizes, cfg)
	}
}

// run parses args, launches the workload they name with MVAPICH2-style
// variables from env applied over the library mode, and writes its report
// to stdout.
func run(args []string, env map[string]string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cmpirun", flag.ContinueOnError)
	hosts := fs.Int("hosts", 1, "number of hosts")
	containers := fs.Int("containers", 2, "containers per host (0 = native)")
	procs := fs.Int("procs", 16, "total MPI processes (OSU pair benchmarks use 2)")
	mode := fs.String("mode", "aware", "library mode: default | aware")
	workload := fs.String("workload", "graph500", "graph500 | ep | cg | ft | is | mg | hello | osu-<bench>, bench one of\n"+
		"latency | bw | bibw | mr | mbw | put_lat | put_bw | put_bibw | get_lat | get_bw | bcast | allreduce | allgather | alltoall")
	scale := fs.Int("scale", 12, "graph500 scale (2^scale vertices)")
	class := fs.String("class", "S", "NPB class: S | W | A | B")
	profileFlag := fs.Bool("profile", false, "print the mpiP-style profile")
	isolated := fs.Bool("isolated", false, "fully isolated namespaces (no shared IPC/PID)")
	hier := fs.Bool("hier", false, "use hierarchical (two-level) collectives")
	traceFlag := fs.Bool("trace", false, "stream the structured trace (cmpi-trace v1: every message with its channel decision) to stderr")
	minSize := fs.Int("min", 1, "OSU minimum message size")
	maxSize := fs.Int("max", 1<<20, "OSU maximum message size")
	iters := fs.Int("iters", 100, "OSU timed iterations per size")
	interSocket := fs.Bool("intersocket", false, "pin an OSU pair to different sockets")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var opts cmpi.Options
	switch *mode {
	case "aware":
		opts = cmpi.DefaultOptions()
	case "default":
		opts = cmpi.StockOptions()
	default:
		return fmt.Errorf("unknown mode %q (want default or aware)", *mode)
	}
	switch *class {
	case "S", "W", "A", "B":
	default:
		return fmt.Errorf("unknown NPB class %q (want S, W, A or B)", *class)
	}
	bench, isOSU := strings.CutPrefix(*workload, "osu-")
	ob, known := osuBenches[bench]
	switch {
	case isOSU && !known:
		return fmt.Errorf("unknown OSU benchmark %q in workload %q", bench, *workload)
	case isOSU && (*minSize < 1 || *maxSize < *minSize || *iters < 1):
		return fmt.Errorf("OSU sizes %d..%d with %d iterations: need 1 <= min <= max and iters >= 1",
			*minSize, *maxSize, *iters)
	case !isOSU && npbKernels[*workload] == nil && *workload != "graph500" && *workload != "hello":
		return fmt.Errorf("unknown workload %q", *workload)
	}

	spec := cmpi.ChameleonSpec()
	spec.Hosts = *hosts
	perHost := *containers
	if ob.pair {
		spec.Hosts = 1
		if perHost > 0 {
			perHost = 2
		}
	}
	clu, err := cmpi.NewClusterE(spec)
	if err != nil {
		return err
	}
	sopts := cmpi.PaperScenarioOpts()
	if *isolated {
		sopts = cmpi.IsolatedScenarioOpts()
	}
	var deploy *cmpi.Deployment
	switch {
	case ob.pair && *containers == 0:
		deploy, err = cmpi.NativePair(clu, !*interSocket)
	case ob.pair:
		deploy, err = cmpi.TwoContainersSockets(clu, !*interSocket, sopts)
	case *containers == 0:
		deploy, err = cmpi.Native(clu, *procs)
	default:
		deploy, err = cmpi.Containers(clu, *containers, *procs, sopts)
	}
	if err != nil {
		return err
	}

	// MVAPICH2-compatible environment variables override flags, so scripts
	// written for the real library drive the simulation unchanged.
	opts.Profile = *profileFlag
	opts.HierarchicalCollectives = *hier
	opts, err = cmpi.OptionsFromEnv(opts, env)
	if err != nil {
		return err
	}
	if *traceFlag {
		opts.Record = cmpi.NewTraceRecorder(os.Stderr)
	}
	world, err := cmpi.NewWorld(deploy, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "cmpirun: %d procs, %s, %d host(s), %d container(s)/host, mode=%s\n",
		deploy.Size(), deploy.Scenario, spec.Hosts, perHost, *mode)

	switch {
	case isOSU:
		cfg := cmpi.DefaultOSUConfig()
		cfg.Iters = *iters
		series, err := ob.run(world, cmpi.PowersOfTwo(*minSize, *maxSize), cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# OSU %s (%s), mode=%s\n", bench, ob.unit, *mode)
		fmt.Fprintf(stdout, "%-10s %14s\n", "bytes", ob.unit)
		for _, r := range series {
			fmt.Fprintf(stdout, "%-10d %14.3f\n", r.Bytes, r.Value)
		}
	case *workload == "graph500":
		p := cmpi.Graph500Defaults(*scale)
		res, err := cmpi.RunGraph500(world, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "graph500 scale=%d edgefactor=%d: mean BFS %v, %.3g TEPS, validated=%v\n",
			p.Scale, p.EdgeFactor, res.MeanBFS, res.TEPS, res.Validated)
		for i, bt := range res.BFSTimes {
			fmt.Fprintf(stdout, "  root %d: BFS %v\n", i, bt)
		}
		fmt.Fprintf(stdout, "  visited (mean): %.0f/%d vertices\n", res.VisitedMean, res.NVertices)
	case *workload == "hello":
		err := world.Run(func(r *cmpi.Rank) error {
			sum := r.AllreduceInt64(int64(r.Rank()), cmpi.SumInt64)
			locals := len(r.LocalRanks())
			fmt.Fprintf(stdout, "rank %d/%d on %s: sees %d co-resident rank(s), allreduce=%d, t=%v\n",
				r.Rank(), r.Size(), r.Hostname(), locals, sum, r.Now())
			return nil
		})
		if err != nil {
			return err
		}
	default:
		res, err := npbKernels[*workload](world, cmpi.NPBClass((*class)[0]))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res)
	}

	if *profileFlag && world.Prof != nil {
		ch := world.Prof.TotalChannels()
		fmt.Fprintf(stdout, "profile: comm share %.0f%%, mean compute %v\n",
			world.Prof.CommFraction()*100, world.Prof.MeanComputeTime())
		fmt.Fprintf(stdout, "channel ops: SHM=%d CMA=%d HCA=%d\n", ch.Ops[0], ch.Ops[1], ch.Ops[2])
		fmt.Fprintf(stdout, "top MPI calls: %v\n", world.Prof.TopCalls())
	}
	return nil
}
