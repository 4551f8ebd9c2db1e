// Command bench is the cmpi benchmark: six workloads, end-to-end metrics on
// two clocks, and a traced pass that attributes host time to layers. See
// README.md in this directory; BENCHMARK.json at the repository root is the
// contract it is run under.
//
//	bash bench/run.sh                          every workload, end-to-end metrics
//	bash bench/run.sh --trace 1                adds per-layer metrics and span files
//	bash bench/run.sh --workload coll-64       one workload
//	bash bench/run.sh -compare A.json B.json   apply the bounds to two result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// processStart is as close to process start as Go code gets; the first
// set-up sample is measured from it.
var processStart = time.Now()

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
}

// envInfo records where a result was measured.
type envInfo struct {
	Commit     string   `json:"commit"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Seed       int64    `json:"seed"`
	Cleared    []string `json:"cleared_env,omitempty"`
}

// wlResult is everything one run of one workload produced.
type wlResult struct {
	Name       string             `json:"name"`
	Trace      bool               `json:"trace"`
	Reps       int                `json:"reps"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	VirtDigest string             `json:"virt_digest"`
	Metrics    map[string]summary `json:"metrics"`
}

// resultFile is what a run leaves in the output directory and what -compare
// reads: one entry per workload.
type resultFile struct {
	Env       envInfo    `json:"env"`
	Workloads []wlResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: all six, one child process each)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass: per-layer metrics, spans, tracing overhead")
	fs.BoolVar(&cfg.smoke, "smoke", false, "one repetition at 1/20 of the iteration counts")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for result and span files")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as the metric and workload tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	switch {
	case *manifest:
		fmt.Fprintln(stdout, manifestJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	env := environment(cfg.seed, stderr)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if cfg.workload == "" {
		return runAll(cfg, env, stdout, stderr)
	}
	wl, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", cfg.workload)
		return 2
	}
	res, tr := runWorkload(cfg, wl)
	printWorkload(stdout, res, tr)
	if tr != nil {
		path := filepath.Join(cfg.out, "spans-"+wl.name+".json")
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	}
	if err := writeJSON(resultPath(cfg, wl.name), resultFile{Env: env, Workloads: []wlResult{res}}); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, resultLine(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// hygieneVars change what the simulator does; the benchmark always measures
// the defaults, so they are cleared (and the run says so).
var hygieneVars = []string{"CMPI_SIM_WORKERS", "CMPI_SIM_ENGINE", "CMPI_FOOTPRINT_DECAY", "CMPI_SWEEP_WORKERS"}

func environment(seed int64, stderr io.Writer) envInfo {
	env := envInfo{
		Commit: "unknown", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	for _, kv := range os.Environ() {
		name, _, _ := strings.Cut(kv, "=")
		drop := strings.HasPrefix(name, "MV2_")
		for _, v := range hygieneVars {
			drop = drop || name == v
		}
		if drop {
			os.Unsetenv(name)
			env.Cleared = append(env.Cleared, name)
		}
	}
	if len(env.Cleared) > 0 {
		fmt.Fprintf(stderr, "bench: cleared %s: the benchmark measures the defaults\n", strings.Join(env.Cleared, ", "))
	}
	return env
}

func resultPath(cfg config, name string) string {
	kind := "e2e"
	if cfg.trace {
		kind = "traced"
	}
	return filepath.Join(cfg.out, fmt.Sprintf("result-%s-%s.json", name, kind))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// runAll runs every workload in its own child process (a fresh heap each),
// one at a time, and merges their result files.
func runAll(cfg config, env envInfo, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	merged := resultFile{Env: env}
	code := 0
	for _, wl := range workloads {
		args := []string{"--workload", wl.name, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds), "--out", cfg.out}
		if cfg.trace {
			args = append(args, "--trace", "1")
		}
		if cfg.smoke {
			args = append(args, "--smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintf(stderr, "%s: %v\n", wl.name, err)
			}
			code = 1
		}
		rf, err := readResults(resultPath(cfg, wl.name))
		if err != nil {
			fmt.Fprintln(stderr, err)
			code = 1
			continue
		}
		merged.Workloads = append(merged.Workloads, rf.Workloads...)
	}
	path := resultPath(cfg, "all")
	if err := writeJSON(path, merged); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printTable(stdout, merged)
	fmt.Fprintf(stdout, "results: %s\n", path)
	return code
}

// resultLine is the last line of a single-workload run: the contract's JSON
// object, with the end-to-end medians (tracing off) or every per-layer
// metric (traced pass).
func resultLine(res wlResult) string {
	list := endToEnd
	if res.Trace {
		list = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range list {
		metrics[m.Name] = value{res.Metrics[m.Name].Median, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// manifestJSON renders BENCHMARK.json from the tables in this package, so
// the contract file and the program cannot drift apart (a test compares them).
func manifestJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, x := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{x.Name, x.Unit, x.Better, x.Bound})
	}
	for _, x := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{x.Name, x.Unit, x.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(data)
}
