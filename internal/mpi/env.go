package mpi

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"cmpi/internal/core"
)

// OptionsFromEnv applies MVAPICH2-compatible environment variables to a
// base option set, so scripts written for the real library map directly
// onto the simulation:
//
//	MV2_SMP_EAGERSIZE         SHM eager/rendezvous switch (bytes)
//	MV2_SMPI_LENGTH_QUEUE     per-pair shared ring budget (bytes)
//	MV2_IBA_EAGER_THRESHOLD   HCA eager/rendezvous switch (bytes)
//	MV2_SMP_USE_CMA           0/1: enable the CMA channel
//	MV2_CONTAINER_SUPPORT     0/1: the paper's locality-aware design
//	                          (the MVAPICH2-Virt flag this work shipped as)
//	MV2_USE_HIERARCHICAL_COLL 0/1: two-level collectives (extension)
//	MV2_ALLREDUCE_ALGO        auto|rd|rab|ring|tree: flat Allreduce
//	                          algorithm (auto = per-call selection)
//	MV2_DEFAULT_RETRY_COUNT   RC retransmissions before the QP errors out
//	MV2_DEFAULT_TIME_OUT      RC retry timeout exponent (4.096us * 2^v)
//
// Size values accept optional K/M suffixes (binary units) and must be
// positive. Boolean values are case-insensitive (1/0, on/off, true/false).
// Unknown MV2_* variables are ignored, like the real library. The env map
// is typically built from os.Environ(); keys are applied in sorted order,
// so when several values are invalid the reported error is deterministic —
// always the lexicographically first offender.
func OptionsFromEnv(base Options, env map[string]string) (Options, error) {
	opts := base
	keys := make([]string, 0, len(env))
	for key := range env {
		if strings.HasPrefix(key, "MV2_") {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		val := env[key]
		var err error
		switch key {
		case "MV2_SMP_EAGERSIZE":
			opts.Tunables.SMPEagerSize, err = parseSize(val)
		case "MV2_SMPI_LENGTH_QUEUE":
			opts.Tunables.SMPLengthQueue, err = parseSize(val)
		case "MV2_IBA_EAGER_THRESHOLD":
			opts.Tunables.IBAEagerThreshold, err = parseSize(val)
		case "MV2_SMP_USE_CMA":
			opts.Tunables.UseCMA, err = parseBool(val)
		case "MV2_CONTAINER_SUPPORT":
			var on bool
			if on, err = parseBool(val); err == nil {
				if on {
					opts.Mode = core.ModeLocalityAware
				} else {
					opts.Mode = core.ModeDefault
				}
			}
		case "MV2_USE_HIERARCHICAL_COLL":
			opts.HierarchicalCollectives, err = parseBool(val)
		case "MV2_ALLREDUCE_ALGO":
			opts.Tunables.AllreduceAlgo, err = core.ParseAllreduceAlgo(strings.ToLower(strings.TrimSpace(val)))
		case "MV2_DEFAULT_RETRY_COUNT":
			opts.Tunables.RetryCount, err = strconv.Atoi(strings.TrimSpace(val))
		case "MV2_DEFAULT_TIME_OUT":
			var exp int
			if exp, err = strconv.Atoi(strings.TrimSpace(val)); err == nil {
				opts.Tunables.RetryTimeout = core.RetryTimeoutFromExponent(exp)
			}
		default:
			// Unknown MV2_* variables are accepted silently.
		}
		if err != nil {
			return opts, fmt.Errorf("%s=%q: %w", key, val, err)
		}
	}
	return opts, opts.Validate()
}

// parseSize parses "8192", "8K", "128K", "1M" (binary units). Sizes
// configure buffer capacities and protocol thresholds, so non-positive
// values are rejected here rather than flowing into the tunables.
func parseSize(s string) (int, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1024, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1024*1024, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v <= 0 {
		return 0, fmt.Errorf("size must be positive, got %d x %d", v, mult)
	}
	if v > math.MaxInt/mult {
		return 0, fmt.Errorf("size %d x %d overflows int", v, mult)
	}
	return v * mult, nil
}

// parseBool accepts 1/0, on/off, true/false in any letter case, matching
// the real library's forgiving parsing.
func parseBool(s string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "1", "on", "true":
		return true, nil
	case "0", "off", "false":
		return false, nil
	}
	return false, fmt.Errorf("not a boolean")
}
