package main

// metric declares one number the benchmark reports. Clock is "host" (what the
// simulator costs), "virtual" (what the modelled library achieves; exact at a
// fixed seed) or "count" (an exact count made by the program).
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  string
	// Bound (end-to-end only) is the share of the base median by which the
	// metric may worsen before a change is a regression.
	Bound float64
	// Moves (per-layer only) is the prediction written down before measuring:
	// the end-to-end metric and workload this number should move. Everything
	// not named is predicted unchanged.
	Moves string
}

// endToEnd metrics are reported for every workload, from repetitions run
// with tracing off, as the median over the repetitions of one run.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Clock: "host", Bound: 0.25},
	{Name: "host_s", Unit: "s", Better: "lower", Clock: "host", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Clock: "host", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Clock: "host", Bound: 0.02},
	{Name: "virt_ms", Unit: "ms", Better: "lower", Clock: "virtual", Bound: 0.02},
}

// failFrac is the sixth end-to-end number: failed checks over checks
// attempted. It must be 0, so it cannot carry a relative bound and is not
// listed in BENCHMARK.json; the result line carries it as failed/attempted.
const failFrac = "fail_frac"

const (
	allButScale = "every workload except scale-1024"
	pt2ptBoth   = "pt2pt-local, pt2pt-hca"
)

// perLayer metrics come from the traced pass: per-workload counters read
// from the worlds the traced repetition ran, and layer drivers that time one
// layer from outside through its exported functions.
var perLayer = []metric{
	// sim
	{Name: "sim.goroutine_switch_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s, cpu_s on " + allButScale},
	{Name: "sim.sys_frac", Unit: "ratio", Better: "lower", Clock: "host", Moves: "cpu_s on " + allButScale},
	{Name: "sim.machine_step_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on scale-1024 only"},
	{Name: "sim.callback_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on pt2pt-hca, coll-64"},
	{Name: "sim.epoch_event_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on coll-64, apps-32; not faults-16 (classic loop)"},
	{Name: "sim.epoch_width_speedup", Unit: "x", Better: "higher", Clock: "host", Moves: "nothing at the default width 1; recorded for ROADMAP's >=2x decision rule"},
	{Name: "sim.dispatched", Unit: "count", Better: "lower", Clock: "count", Moves: "host_s on the same workload (compare host time per event)"},
	{Name: "sim.stale_wakes", Unit: "count", Better: "lower", Clock: "count", Moves: "host_s on the same workload"},
	{Name: "sim.coalesced_wakes", Unit: "count", Better: "lower", Clock: "count", Moves: "host_s on the same workload"},
	{Name: "sim.parallel_batches", Unit: "count", Better: "lower", Clock: "count", Moves: "host_s on coll-64, apps-32, scale-1024; 0 on faults-16's plan worlds"},
	{Name: "sim.max_batch_width", Unit: "count", Better: "higher", Clock: "count", Moves: "nothing at width 1"},
	{Name: "sim.regroup_yields", Unit: "count", Better: "lower", Clock: "count", Moves: "host_s on coll-64, apps-32"},
	{Name: "sim.narrowed_pairs", Unit: "count", Better: "higher", Clock: "count", Moves: "nothing at width 1"},
	{Name: "sim.max_heap_depth", Unit: "count", Better: "lower", Clock: "count", Moves: "host_s on pt2pt-hca, scale-1024"},
	{Name: "sim.peak_proc_kb", Unit: "KB", Better: "lower", Clock: "count", Moves: "alloc_mb on scale-1024"},
	{Name: "sim.events_per_host_s", Unit: "1/s", Better: "higher", Clock: "host", Moves: "host_s on the same workload"},

	// cluster, shmem, core
	{Name: "cluster.deploy_1024_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "setup_s, host_s on scale-1024"},
	{Name: "core.detector_init_us_1024", Unit: "us", Better: "lower", Clock: "host", Moves: "setup_s on scale-1024"},
	{Name: "mpi.newworld_ms_64", Unit: "ms", Better: "lower", Clock: "host", Moves: "setup_s on coll-64"},
	{Name: "mpi.newworld_ms_1024", Unit: "ms", Better: "lower", Clock: "host", Moves: "setup_s on scale-1024"},
	{Name: "shmem.create_attach_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "setup_s on pt2pt-local"},
	{Name: "core.select_path_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on the small halves of " + pt2ptBoth},
	{Name: "core.bufpool_getput_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on the small halves of " + pt2ptBoth},
	{Name: "core.bufpool_hit_rate", Unit: "ratio", Better: "higher", Clock: "count", Moves: "alloc_mb on the same workload"},
	{Name: "mpi.objpool_hit_rate", Unit: "ratio", Better: "higher", Clock: "count", Moves: "alloc_mb on the same workload"},

	// cma
	{Name: "cma.readv_ns_4k", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on the large half of pt2pt-local"},
	{Name: "cma.readv_gbps_1m", Unit: "GB/s", Better: "higher", Clock: "host", Moves: "host_s on the large half of pt2pt-local"},

	// ib
	{Name: "ib.send_ns_per_msg", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on pt2pt-hca"},
	{Name: "ib.send_allocs_per_msg", Unit: "allocs", Better: "lower", Clock: "count", Moves: "alloc_mb on pt2pt-hca"},
	{Name: "ib.write_gbps_1m", Unit: "GB/s", Better: "higher", Clock: "host", Moves: "host_s on the large half of pt2pt-hca"},
	{Name: "ib.read_ns_64k", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on the large half of pt2pt-hca"},
	{Name: "ib.transit_ns_fattree", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on scale-1024"},
	{Name: "ib.retransmits", Unit: "count", Better: "lower", Clock: "count", Moves: "virt_ms on faults-16; 0 elsewhere"},

	// mpi, per channel
	{Name: "mpi.shm_eager_ns_per_msg", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on pt2pt-local (small half)"},
	{Name: "mpi.shm_eager_allocs_per_msg", Unit: "allocs", Better: "lower", Clock: "count", Moves: "alloc_mb on pt2pt-local"},
	{Name: "mpi.cma_rndv_ns_per_msg", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on pt2pt-local (large half)"},
	{Name: "mpi.cma_rndv_allocs_per_msg", Unit: "allocs", Better: "lower", Clock: "count", Moves: "alloc_mb on pt2pt-local"},
	{Name: "mpi.cma_rndv_host_gbps", Unit: "GB/s", Better: "higher", Clock: "host", Moves: "host_s on pt2pt-local (large half)"},
	{Name: "mpi.hca_eager_ns_per_msg", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on pt2pt-hca (small half)"},
	{Name: "mpi.hca_eager_allocs_per_msg", Unit: "allocs", Better: "lower", Clock: "count", Moves: "alloc_mb on pt2pt-hca"},
	{Name: "mpi.hca_rndv_ns_per_msg", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on pt2pt-hca (large half)"},
	{Name: "mpi.hca_rndv_allocs_per_msg", Unit: "allocs", Better: "lower", Clock: "count", Moves: "alloc_mb on pt2pt-hca"},
	{Name: "mpi.hca_rndv_host_gbps", Unit: "GB/s", Better: "higher", Clock: "host", Moves: "host_s on pt2pt-hca (large half)"},
	{Name: "mpi.rma_put_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on " + pt2ptBoth},
	{Name: "mpi.isend_window_ns_per_msg", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on apps-32, coll-64"},
	{Name: "mpi.match_ns_depth256", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on apps-32, coll-64"},

	// mpi collectives at 64 ranks, host time per call
	{Name: "mpi.allreduce64_rd_us", Unit: "us", Better: "lower", Clock: "host", Moves: "host_s on coll-64"},
	{Name: "mpi.allreduce64_tree_us", Unit: "us", Better: "lower", Clock: "host", Moves: "host_s on coll-64"},
	{Name: "mpi.allreduce64_rab_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_s on coll-64"},
	{Name: "mpi.allreduce64_ring_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_s on coll-64"},
	{Name: "mpi.bcast64_us", Unit: "us", Better: "lower", Clock: "host", Moves: "host_s on coll-64"},
	{Name: "mpi.allgather64_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_s on coll-64"},
	{Name: "mpi.alltoall64_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_s on coll-64"},
	{Name: "mpi.barrier64_us", Unit: "us", Better: "lower", Clock: "host", Moves: "host_s on coll-64"},
	{Name: "mpi.blocking_allreduce64_us", Unit: "us", Better: "lower", Clock: "host", Moves: "host_s on coll-64; must not worsen under 'one collective implementation'"},
	{Name: "mpi.machine_allreduce64_us", Unit: "us", Better: "lower", Clock: "host", Moves: "host_s on scale-1024"},
	{Name: "mpi.runscale_4096_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_s on scale-1024"},

	// mpi, Table I per workload (traced repetition, Options.Profile on)
	{Name: "mpi.ops_shm", Unit: "count", Better: "lower", Clock: "count", Moves: "0 on pt2pt-hca"},
	{Name: "mpi.ops_cma", Unit: "count", Better: "lower", Clock: "count", Moves: "0 on pt2pt-hca"},
	{Name: "mpi.ops_hca", Unit: "count", Better: "lower", Clock: "count", Moves: "0 on pt2pt-local"},
	{Name: "mpi.bytes_shm", Unit: "B", Better: "lower", Clock: "count", Moves: "0 on pt2pt-hca"},
	{Name: "mpi.bytes_cma", Unit: "B", Better: "lower", Clock: "count", Moves: "0 on pt2pt-hca"},
	{Name: "mpi.bytes_hca", Unit: "B", Better: "lower", Clock: "count", Moves: "0 on pt2pt-local"},
	{Name: "mpi.comm_fraction", Unit: "ratio", Better: "lower", Clock: "virtual", Moves: "virt_ms on the same workload"},

	// workload layers
	{Name: "osu.bw_alloc_bytes_per_payload_byte", Unit: "B/B", Better: "lower", Clock: "count", Moves: "alloc_mb on " + pt2ptBoth},
	{Name: "osu.latency_host_ns_per_iter_8b", Unit: "ns", Better: "lower", Clock: "host", Moves: "host_s on " + pt2ptBoth},
	{Name: "graph500.host_s_scale14", Unit: "s", Better: "lower", Clock: "host", Moves: "host_s on apps-32"},
	{Name: "npb.cg_host_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_s on apps-32"},
	{Name: "npb.ep_host_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_s on apps-32"},
	{Name: "npb.ft_host_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_s on apps-32"},
	{Name: "npb.is_host_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_s on apps-32"},
	{Name: "npb.mg_host_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_s on apps-32"},
	{Name: "mltrain.dp_step_host_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_s on apps-32"},
	{Name: "experiments.fig7a_s", Unit: "s", Better: "lower", Clock: "host", Moves: "no workload; stands in for the Quick table"},
	{Name: "experiments.fig10_s", Unit: "s", Better: "lower", Clock: "host", Moves: "no workload; stands in for the Quick table"},
	{Name: "experiments.sweep_speedup", Unit: "x", Better: "higher", Clock: "host", Moves: "no workload; sweep workers nproc vs 1"},

	// trace, fault, recover, profile
	{Name: "trace.record_overhead_pct", Unit: "%", Better: "lower", Clock: "host", Moves: "host_s on faults-16"},
	{Name: "trace.read_mb_per_s", Unit: "MB/s", Better: "higher", Clock: "host", Moves: "no workload"},
	{Name: "trace.replay_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "no workload"},
	{Name: "fault.plan_overhead_pct", Unit: "%", Better: "lower", Clock: "host", Moves: "host_s on faults-16"},
	{Name: "recover.restart_host_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "host_s on faults-16"},
	{Name: "recover.snapshot_bytes", Unit: "B", Better: "lower", Clock: "count", Moves: "alloc_mb on faults-16"},
	{Name: "profile.overhead_pct", Unit: "%", Better: "lower", Clock: "host", Moves: "bench.trace_overhead_pct on coll-64"},

	// perf model anchors: the cells the model is validated on
	{Name: "model.lat1k_def_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "virt_ms on pt2pt-hca (paper: 2.26)"},
	{Name: "model.lat1k_opt_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "virt_ms on pt2pt-local (paper: 0.47)"},
	{Name: "model.lat1k_native_us", Unit: "us", Better: "lower", Clock: "virtual", Moves: "virt_ms on pt2pt-local (paper: 0.44)"},
	{Name: "model.putbw4_opt_over_def", Unit: "x", Better: "higher", Clock: "virtual", Moves: "virt_ms on " + pt2ptBoth + " (paper: 9.4x)"},
	{Name: "model.bw64k_opt_over_def", Unit: "x", Better: "higher", Clock: "virtual", Moves: "virt_ms on " + pt2ptBoth},
	{Name: "model.err_pct_mean", Unit: "%", Better: "lower", Clock: "virtual", Moves: "virt_ms on " + pt2ptBoth},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Clock: "host", Moves: "nothing; traced host_s over untraced"},
}

// layerValue is the one-shot summary of a per-layer metric, with the unit and
// clock the table declares. An undeclared name is a bug in a driver.
func layerValue(name string, v float64) summary {
	for _, m := range perLayer {
		if m.Name == name {
			return single(m.Unit, m.Clock, v)
		}
	}
	panic("bench: undeclared per-layer metric " + name)
}
