package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"cmpi/internal/sim"
)

// Repetition counts. A run sets up setupReps times and reports the median,
// then repeats the workload until --seconds has passed, at least minReps
// times; the traced pass alternates untraced and traced repetitions so the
// two medians see the same machine state.
const (
	setupReps = 5
	minReps   = 3
)

// repSample is what one repetition measured.
type repSample struct {
	host, cpu, allocMB float64
	virt               sim.Time
	dispatched         uint64
	digest             string
}

// cpuTimes is the process's user and system CPU seconds so far.
func cpuTimes() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// timed runs fn from a collected heap and returns host seconds, CPU seconds
// (user+sys, so a second core or futex time bought with wall time shows) and
// heap megabytes allocated.
func timed(fn func()) (host, cpu, allocMB float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0, s0 := cpuTimes()
	t0 := time.Now()
	fn()
	host = time.Since(t0).Seconds()
	u1, s1 := cpuTimes()
	runtime.ReadMemStats(&m1)
	return host, u1 - u0 + s1 - s0, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
}

// runWorkload is one run of one workload: set-up, repetitions, checks, and
// for the traced pass the per-layer metrics. The tracer is nil with tracing
// off.
func runWorkload(cfg config, wl workload) (wlResult, *tracer) {
	res := wlResult{Name: wl.name, Trace: cfg.trace, Metrics: map[string]summary{}}
	count := func(p *pass) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.Failures = append(res.Failures, p.failures...)
	}

	// Set-up: generate the inputs, build every world the workload uses and
	// run them at 1/20 of the iteration counts, so pools, rings and the heap
	// are warm before anything is timed. The first sample starts at process
	// start.
	n := setupReps
	if cfg.trace || cfg.smoke {
		n = 1
	}
	var setups []float64
	t0 := processStart
	for i := 0; i < n; i++ {
		if i > 0 {
			t0 = time.Now()
		}
		p := newPass(cfg.seed, smokeDiv, nil)
		wl.run(p)
		setups = append(setups, time.Since(t0).Seconds())
		count(p)
	}
	res.Metrics["setup_s"] = summarize("s", "host", setups)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(wl.name)
	}
	div, need := 1, minReps
	if cfg.smoke {
		div, need = smokeDiv, 1
	}
	if cfg.trace {
		need *= 2 // alternating untraced, traced
	}
	var plain, traced []repSample
	var last *pass // the last traced pass: source of the per-workload counters
	start := time.Now()
	for i := 0; ; i++ {
		var p *pass
		var s repSample
		if cfg.trace && i%2 == 1 {
			p = newPass(cfg.seed, div, tr)
			s.host, s.cpu, s.allocMB = timed(func() {
				defer tr.begin("repetition")()
				wl.run(p)
			})
			last = p
		} else {
			p = newPass(cfg.seed, div, nil)
			s.host, s.cpu, s.allocMB = timed(func() { wl.run(p) })
		}
		s.virt, s.dispatched, s.digest = p.virt, p.sim.Dispatched, hex.EncodeToString(p.digest.Sum(nil))
		count(p)
		if p.tr != nil {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
		// Stop when the next repetition would overshoot the budget by more
		// than it undershoots now.
		if done := i + 1; done >= need && (cfg.smoke || time.Since(start).Seconds()+s.host/2 >= cfg.seconds) {
			break
		}
	}
	res.Reps = len(plain)

	// Determinism: every repetition, traced or not, returns the same virtual
	// results and event count.
	first := plain[0]
	for i, s := range append(append([]repSample(nil), plain[1:]...), traced...) {
		res.Attempted++
		if s.virt != first.virt || s.dispatched != first.dispatched || s.digest != first.digest {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("repetition %d is not deterministic: virt %v vs %v, dispatched %d vs %d", i+1, s.virt, first.virt, s.dispatched, first.dispatched))
		}
	}
	res.VirtDigest = first.digest
	res.Correct = res.Failed == 0

	col := func(f func(repSample) float64, in []repSample) []float64 {
		out := make([]float64, len(in))
		for i, s := range in {
			out[i] = f(s)
		}
		return out
	}
	host := func(s repSample) float64 { return s.host }
	res.Metrics["host_s"] = summarize("s", "host", col(host, plain))
	res.Metrics["cpu_s"] = summarize("s", "host", col(func(s repSample) float64 { return s.cpu }, plain))
	res.Metrics["alloc_mb"] = summarize("MB", "host", col(func(s repSample) float64 { return s.allocMB }, plain))
	res.Metrics["virt_ms"] = summarize("ms", "virtual", col(func(s repSample) float64 { return s.virt.Millis() }, plain))
	res.Metrics[failFrac] = single("ratio", "count", float64(res.Failed)/float64(res.Attempted))

	if cfg.trace {
		hostPlain := res.Metrics["host_s"].Median
		hostTraced := summarize("s", "host", col(host, traced)).Median
		res.Metrics["bench.trace_overhead_pct"] = layerValue("bench.trace_overhead_pct", (hostTraced/hostPlain-1)*100)
		workloadLayerMetrics(res.Metrics, last, hostPlain)
		end := tr.begin("layers")
		runLayerDrivers(&res, tr, cfg.smoke)
		end()
	}
	return res, tr
}

// workloadLayerMetrics reads the per-workload counters off the traced pass.
func workloadLayerMetrics(m map[string]summary, p *pass, hostPlain float64) {
	set := func(name string, v float64) { m[name] = layerValue(name, v) }
	s := p.sim
	set("sim.dispatched", float64(s.Dispatched))
	set("sim.stale_wakes", float64(s.StaleWakes))
	set("sim.coalesced_wakes", float64(s.CoalescedWakes))
	set("sim.parallel_batches", float64(s.ParallelBatches))
	set("sim.max_batch_width", float64(s.MaxBatchWidth))
	set("sim.regroup_yields", float64(s.RegroupYields))
	set("sim.narrowed_pairs", float64(s.NarrowedPairs))
	set("sim.max_heap_depth", float64(s.MaxHeapDepth))
	set("sim.peak_proc_kb", float64(s.PeakProcBytes)/1024)
	// Host time per event, not host time alone: a change may also change how
	// many events the same job takes.
	set("sim.events_per_host_s", float64(s.Dispatched)/hostPlain)
	set("core.bufpool_hit_rate", s.BufPool.HitRate())
	set("mpi.objpool_hit_rate", s.ObjPool.HitRate())
	for ch, name := range []string{"shm", "cma", "hca"} {
		set("mpi.ops_"+name, float64(p.channels.Ops[ch]))
		set("mpi.bytes_"+name, float64(p.channels.Bytes[ch]))
	}
	frac := 0.0
	if p.appTime > 0 {
		frac = float64(p.mpiTime) / float64(p.appTime)
	}
	set("mpi.comm_fraction", frac)
	set("ib.retransmits", float64(p.retrans))
}

func printWorkload(w io.Writer, res wlResult, tr *tracer) {
	mode := "off"
	if res.Trace {
		mode = "on"
	}
	fmt.Fprintf(w, "workload %s: %d repetitions, tracing %s\n", res.Name, res.Reps, mode)
	row := func(name string) {
		s := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s [%-7s] q1 %.6g q3 %.6g min %.6g max %.6g n %d\n",
			name, s.Median, s.Unit, s.Clock, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	for _, m := range endToEnd {
		row(m.Name)
	}
	fmt.Fprintf(w, "  %-36s %14.6g %-6s [count  ] %d failed of %d checks\n", failFrac, res.Metrics[failFrac].Median, "ratio", res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	fmt.Fprintf(w, "  virt_digest %s\n", res.VirtDigest)
	if tr == nil {
		return
	}
	for _, m := range perLayer {
		s := res.Metrics[m.Name]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s [%-7s] moves: %s\n", m.Name, s.Median, s.Unit, s.Clock, m.Moves)
	}
	selfTimes(tr.spans)
	fmt.Fprintln(w, "  self time by span (traced repetitions and layer drivers), top 12:")
	for i, s := range selfByName(tr.spans) {
		if i == 12 {
			break
		}
		fmt.Fprintf(w, "    %-44s %10.1f ms\n", s.Name, s.SelfUs/1000)
	}
}

// printTable is the all-workloads summary: one row per workload, one column
// per end-to-end metric (medians).
func printTable(w io.Writer, rf resultFile) {
	fmt.Fprintf(w, "\ncommit %s  %s/%s  nproc %d  GOMAXPROCS %d  %s  seed %d\n",
		rf.Env.Commit, rf.Env.GOOS, rf.Env.GOARCH, rf.Env.NProc, rf.Env.GOMAXPROCS, rf.Env.GoVersion, rf.Env.Seed)
	fmt.Fprintf(w, "%-12s", "workload")
	for _, m := range endToEnd {
		fmt.Fprintf(w, " %12s", m.Name)
	}
	fmt.Fprintf(w, " %10s  (setup_s host_s cpu_s alloc_mb: host clock; virt_ms: virtual clock)\n", failFrac)
	for _, r := range rf.Workloads {
		fmt.Fprintf(w, "%-12s", r.Name)
		for _, m := range endToEnd {
			fmt.Fprintf(w, " %12.6g", r.Metrics[m.Name].Median)
		}
		fmt.Fprintf(w, " %10.6g\n", r.Metrics[failFrac].Median)
	}
}
