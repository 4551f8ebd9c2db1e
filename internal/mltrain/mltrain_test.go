package mltrain

import (
	"strconv"
	"strings"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/mpi"
)

// trainWorld builds an n-rank world over hosts x containersPerHost.
func trainWorld(t *testing.T, hosts, containersPerHost, n int, tweak func(*mpi.Options)) *mpi.World {
	t.Helper()
	spec := cluster.Spec{Hosts: hosts, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), containersPerHost, n, cluster.PaperScenarioOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := mpi.DefaultOptions()
	opts.Mode = core.ModeLocalityAware
	if tweak != nil {
		tweak(&opts)
	}
	w, err := mpi.NewWorld(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func quickCfg(layers ...int) Config {
	cfg := DefaultConfig(layers...)
	cfg.Steps, cfg.Warmup = 2, 1
	return cfg
}

// TestDataParallelAllAlgos runs the training loop under every algorithm,
// including non-power-of-two worlds; the driver self-verifies the reduced
// gradients, so a wrong reduction fails the run.
func TestDataParallelAllAlgos(t *testing.T) {
	algos := []core.AllreduceAlgo{
		core.AllreduceAuto,
		core.AllreduceRecursiveDoubling,
		core.AllreduceRabenseifner,
		core.AllreduceRing,
		core.AllreduceTree,
	}
	for _, n := range []int{3, 4, 6, 8} {
		for _, algo := range algos {
			t.Run(strconv.Itoa(n)+"/"+algo.String(), func(t *testing.T) {
				cont := 1
				if n%2 == 0 {
					cont = 2
				}
				w := trainWorld(t, 1, cont, n, func(o *mpi.Options) {
					o.Tunables.AllreduceAlgo = algo
				})
				rep, err := DataParallel(w, quickCfg(1024, 64))
				if err != nil {
					t.Fatal(err)
				}
				if rep.StepMicros <= 0 {
					t.Errorf("step time %v, want > 0", rep.StepMicros)
				}
				if rep.BytesPerStep != 1088 {
					t.Errorf("bytes per step %d, want 1088", rep.BytesPerStep)
				}
			})
		}
	}
}

// TestDataParallelNoWarmup covers the zero-warmup path, where verification
// runs inside the timed loop.
func TestDataParallelNoWarmup(t *testing.T) {
	w := trainWorld(t, 1, 2, 4, nil)
	cfg := quickCfg(256)
	cfg.Warmup = 0
	if _, err := DataParallel(w, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestParameterServer runs the push/pull pattern on single- and multi-host
// placements and checks the 2-rank minimum is enforced.
func TestParameterServer(t *testing.T) {
	for _, tc := range []struct{ hosts, cont, n int }{{1, 2, 4}, {2, 1, 4}} {
		w := trainWorld(t, tc.hosts, tc.cont, tc.n, nil)
		rep, err := ParameterServer(w, quickCfg(512, 64))
		if err != nil {
			t.Fatal(err)
		}
		if rep.StepMicros <= 0 {
			t.Errorf("step time %v, want > 0", rep.StepMicros)
		}
	}
	w := trainWorld(t, 1, 1, 1, nil)
	if _, err := ParameterServer(w, quickCfg(512)); err == nil || !strings.Contains(err.Error(), ">= 2 ranks") {
		t.Errorf("singleton parameter server: err = %v, want rank-count error", err)
	}
}

// TestConfigValidation rejects empty, unaligned, and non-positive layers
// and step counts.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Steps: 1},                        // no layers
		{Layers: []int{7}, Steps: 1},      // not a float64 multiple
		{Layers: []int{0}, Steps: 1},      // non-positive layer
		{Layers: []int{-8}, Steps: 1},     // negative layer
		{Layers: []int{64}, Steps: 0},     // no steps
		{Layers: []int{64, 12}, Steps: 2}, // second layer unaligned
	}
	for i, cfg := range bad {
		if _, err := DataParallel(nil, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		if _, err := ParameterServer(nil, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted by parameter server", i)
		}
	}
}
