// Command cmpirun launches one MPI workload on a simulated container
// deployment, like mpirun_rsh would on the paper's testbed.
//
// Examples:
//
//	cmpirun -workload graph500 -hosts 1 -containers 4 -procs 16 -mode default
//	cmpirun -workload cg -class W -hosts 4 -containers 2 -procs 32 -mode aware -profile
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cmpi"
)

func main() {
	hosts := flag.Int("hosts", 1, "number of hosts")
	containers := flag.Int("containers", 2, "containers per host (0 = native)")
	procs := flag.Int("procs", 16, "total MPI processes")
	mode := flag.String("mode", "aware", "library mode: default | aware")
	workload := flag.String("workload", "graph500", "graph500 | ep | cg | ft | is | mg | hello")
	scale := flag.Int("scale", 12, "graph500 scale (2^scale vertices)")
	class := flag.String("class", "S", "NPB class: S | W | A | B")
	profileFlag := flag.Bool("profile", false, "print the mpiP-style profile")
	isolated := flag.Bool("isolated", false, "fully isolated namespaces (no shared IPC/PID)")
	hier := flag.Bool("hier", false, "use hierarchical (two-level) collectives")
	traceFlag := flag.Bool("trace", false, "stream the structured trace (cmpi-trace v1: every message with its channel decision) to stderr")
	flag.Parse()

	spec := cmpi.ChameleonSpec()
	spec.Hosts = *hosts
	clu, err := cmpi.NewClusterE(spec)
	fatal(err)

	sopts := cmpi.PaperScenarioOpts()
	if *isolated {
		sopts = cmpi.IsolatedScenarioOpts()
	}
	var deploy *cmpi.Deployment
	if *containers == 0 {
		deploy, err = cmpi.Native(clu, *procs)
	} else {
		deploy, err = cmpi.Containers(clu, *containers, *procs, sopts)
	}
	fatal(err)

	opts := cmpi.DefaultOptions()
	if *mode == "default" {
		opts = cmpi.StockOptions()
	}
	// MVAPICH2-compatible environment variables override flags, so scripts
	// written for the real library drive the simulation unchanged.
	envMap := map[string]string{}
	for _, kv := range os.Environ() {
		if k, v, ok := strings.Cut(kv, "="); ok {
			envMap[k] = v
		}
	}
	opts, err = cmpi.OptionsFromEnv(opts, envMap)
	fatal(err)
	opts.Profile = *profileFlag
	opts.HierarchicalCollectives = *hier
	if *traceFlag {
		opts.Record = cmpi.NewTraceRecorder(os.Stderr)
	}
	world, err := cmpi.NewWorld(deploy, opts)
	fatal(err)

	fmt.Printf("cmpirun: %d procs, %s, %d host(s), %d container(s)/host, mode=%s\n",
		*procs, deploy.Scenario, *hosts, *containers, *mode)

	switch *workload {
	case "graph500":
		p := cmpi.Graph500Defaults(*scale)
		res, err := cmpi.RunGraph500(world, p)
		fatal(err)
		fmt.Printf("graph500 scale=%d edgefactor=%d: mean BFS %v, %.3g TEPS, validated=%v\n",
			p.Scale, p.EdgeFactor, res.MeanBFS, res.TEPS, res.Validated)
	case "ep", "cg", "ft", "is", "mg":
		kernels := map[string]func(*cmpi.World, cmpi.NPBClass) (cmpi.NPBResult, error){
			"ep": cmpi.RunEP, "cg": cmpi.RunCG, "ft": cmpi.RunFT, "is": cmpi.RunIS, "mg": cmpi.RunMG,
		}
		res, err := kernels[*workload](world, cmpi.NPBClass((*class)[0]))
		fatal(err)
		fmt.Println(res)
	case "hello":
		err := world.Run(func(r *cmpi.Rank) error {
			sum := r.AllreduceInt64(int64(r.Rank()), cmpi.SumInt64)
			locals := len(r.LocalRanks())
			fmt.Printf("rank %d/%d on %s: sees %d co-resident rank(s), allreduce=%d, t=%v\n",
				r.Rank(), r.Size(), r.Hostname(), locals, sum, r.Now())
			return nil
		})
		fatal(err)
	default:
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	if *profileFlag && world.Prof != nil {
		ch := world.Prof.TotalChannels()
		fmt.Printf("profile: comm share %.0f%%, mean compute %v\n",
			world.Prof.CommFraction()*100, world.Prof.MeanComputeTime())
		fmt.Printf("channel ops: SHM=%d CMA=%d HCA=%d\n", ch.Ops[0], ch.Ops[1], ch.Ops[2])
		fmt.Printf("top MPI calls: %v\n", world.Prof.TopCalls())
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmpirun:", err)
		os.Exit(1)
	}
}
