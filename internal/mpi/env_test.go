package mpi

import (
	"strings"
	"testing"

	"cmpi/internal/core"
)

func TestOptionsFromEnv(t *testing.T) {
	opts, err := OptionsFromEnv(StockOptions(), map[string]string{
		"MV2_SMP_EAGERSIZE":         "16K",
		"MV2_SMPI_LENGTH_QUEUE":     "256K",
		"MV2_IBA_EAGER_THRESHOLD":   "17408",
		"MV2_SMP_USE_CMA":           "0",
		"MV2_CONTAINER_SUPPORT":     "1",
		"MV2_USE_HIERARCHICAL_COLL": "1",
		"MV2_SOMETHING_UNKNOWN":     "whatever",
		"PATH":                      "/usr/bin",
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Tunables.SMPEagerSize != 16*1024 {
		t.Errorf("eager size %d", opts.Tunables.SMPEagerSize)
	}
	if opts.Tunables.SMPLengthQueue != 256*1024 {
		t.Errorf("length queue %d", opts.Tunables.SMPLengthQueue)
	}
	if opts.Tunables.IBAEagerThreshold != 17408 {
		t.Errorf("iba threshold %d", opts.Tunables.IBAEagerThreshold)
	}
	if opts.Tunables.UseCMA {
		t.Error("CMA should be off")
	}
	if opts.Mode != core.ModeLocalityAware {
		t.Error("container support should flip the mode")
	}
	if !opts.HierarchicalCollectives {
		t.Error("hierarchical collectives should be on")
	}
}

func TestOptionsFromEnvErrors(t *testing.T) {
	if _, err := OptionsFromEnv(DefaultOptions(), map[string]string{"MV2_SMP_EAGERSIZE": "lots"}); err == nil {
		t.Error("bad size accepted")
	}
	if _, err := OptionsFromEnv(DefaultOptions(), map[string]string{"MV2_SMP_USE_CMA": "maybe"}); err == nil {
		t.Error("bad bool accepted")
	}
	// Inconsistent result (eager above ring budget) must fail validation.
	if _, err := OptionsFromEnv(DefaultOptions(), map[string]string{"MV2_SMP_EAGERSIZE": "1M"}); err == nil {
		t.Error("eager > length queue accepted")
	}
	// retry_cnt is a 3-bit verbs field: 7 is the largest count.
	if _, err := OptionsFromEnv(DefaultOptions(), map[string]string{"MV2_DEFAULT_RETRY_COUNT": "7"}); err != nil {
		t.Errorf("retry count 7 rejected: %v", err)
	}
	for _, val := range []string{"8", "64"} {
		_, err := OptionsFromEnv(DefaultOptions(), map[string]string{"MV2_DEFAULT_RETRY_COUNT": val})
		if err == nil || !strings.Contains(err.Error(), "retry count = "+val) {
			t.Errorf("retry count %s: got %v, want an error naming the retry count", val, err)
		}
	}
	// A product that does not fit an int is a parse error naming the variable:
	// the first wrapped to 1024 and was accepted, the second wrapped negative
	// and surfaced in a Validate message.
	for _, val := range []string{"18014398509481985K", "9007199254740993K", "8796093022208M", "9223372036854775807k"} {
		_, err := OptionsFromEnv(DefaultOptions(), map[string]string{"MV2_IBA_EAGER_THRESHOLD": val})
		if err == nil || !strings.Contains(err.Error(), "MV2_IBA_EAGER_THRESHOLD") || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("overflowing size %q: got %v, want an overflow error naming the variable", val, err)
		}
	}
}

// TestOptionsFromEnvDeterministicError feeds several invalid values at once
// and requires the reported error to always name the lexicographically
// first offending key — map iteration order must not leak through.
func TestOptionsFromEnvDeterministicError(t *testing.T) {
	env := map[string]string{
		"MV2_SMP_USE_CMA":         "maybe",
		"MV2_SMP_EAGERSIZE":       "lots",
		"MV2_IBA_EAGER_THRESHOLD": "junk",
		"MV2_ALLREDUCE_ALGO":      "bogus",
	}
	const want = "MV2_ALLREDUCE_ALGO"
	for i := 0; i < 32; i++ {
		_, err := OptionsFromEnv(DefaultOptions(), env)
		if err == nil {
			t.Fatal("invalid env accepted")
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("iteration %d: error %q, want the first key %s", i, err, want)
		}
	}
}

// TestOptionsFromEnvParseEdges pins the size and bool parser edges: sizes
// must be positive, bools are case-insensitive.
func TestOptionsFromEnvParseEdges(t *testing.T) {
	for _, bad := range []string{"0", "-1", "-4K", "0M"} {
		if _, err := OptionsFromEnv(DefaultOptions(), map[string]string{"MV2_IBA_EAGER_THRESHOLD": bad}); err == nil {
			t.Errorf("non-positive size %q accepted", bad)
		}
	}
	opts, err := OptionsFromEnv(DefaultOptions(), map[string]string{"MV2_IBA_EAGER_THRESHOLD": "24k"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Tunables.IBAEagerThreshold != 24*1024 {
		t.Errorf("24k parsed as %d", opts.Tunables.IBAEagerThreshold)
	}
	for val, want := range map[string]bool{"On": true, "TRUE": true, " 1 ": true, "Off": false, "False": false, "0": false} {
		opts, err := OptionsFromEnv(DefaultOptions(), map[string]string{"MV2_SMP_USE_CMA": val})
		if err != nil {
			t.Errorf("bool %q rejected: %v", val, err)
			continue
		}
		if opts.Tunables.UseCMA != want {
			t.Errorf("bool %q parsed as %v", val, opts.Tunables.UseCMA)
		}
	}
}

// TestOptionsFromEnvAllreduceAlgo covers the MV2_ALLREDUCE_ALGO mapping,
// including case-insensitivity and the long algorithm names.
func TestOptionsFromEnvAllreduceAlgo(t *testing.T) {
	for val, want := range map[string]core.AllreduceAlgo{
		"auto":               core.AllreduceAuto,
		"rd":                 core.AllreduceRecursiveDoubling,
		"recursive-doubling": core.AllreduceRecursiveDoubling,
		"Rab":                core.AllreduceRabenseifner,
		"rabenseifner":       core.AllreduceRabenseifner,
		"RING":               core.AllreduceRing,
		"tree":               core.AllreduceTree,
	} {
		opts, err := OptionsFromEnv(DefaultOptions(), map[string]string{"MV2_ALLREDUCE_ALGO": val})
		if err != nil {
			t.Errorf("algo %q rejected: %v", val, err)
			continue
		}
		if opts.Tunables.AllreduceAlgo != want {
			t.Errorf("algo %q parsed as %v, want %v", val, opts.Tunables.AllreduceAlgo, want)
		}
	}
	if _, err := OptionsFromEnv(DefaultOptions(), map[string]string{"MV2_ALLREDUCE_ALGO": "quantum"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestOptionsFromEnvRoundTripsThroughWorld(t *testing.T) {
	opts, err := OptionsFromEnv(StockOptions(), map[string]string{"MV2_CONTAINER_SUPPORT": "1"})
	if err != nil {
		t.Fatal(err)
	}
	opts.Profile = true
	w := testWorld(t, "2cont", 2, opts)
	if err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			r.Send(1, 0, make([]byte, 64))
		} else {
			r.Recv(0, 0, make([]byte, 64))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ops := w.Prof.TotalChannels().Ops; ops[core.ChannelHCA] != 0 {
		t.Errorf("MV2_CONTAINER_SUPPORT=1 should avoid HCA intra-host: %v", ops)
	}
}
