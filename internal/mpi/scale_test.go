package mpi

import (
	"strings"
	"testing"

	"cmpi/internal/ib"
	"cmpi/internal/sim"
)

var scaleTestTopo = ib.Topology{RackSize: 4, SpineStages: 2, SpinesPerStage: 4, HopLatency: 150 * sim.Nanosecond}

func runScale(t *testing.T, o ScaleOptions) *ScaleResult {
	t.Helper()
	res, err := RunScale(o)
	if err != nil {
		t.Fatalf("RunScale: %v", err)
	}
	return res
}

// TestScaleHierBeatsRingOnFatTree: in the latency-bound regime the
// hierarchical algorithm's shallow tree (host fan-in, rack fan-in, short
// leader ring) finishes ahead of the rank ring's 2(P-1) sequential steps.
// (For bandwidth-bound payloads ring wins, as the classical crossover says —
// the proxy reproduces both sides.)
func TestScaleHierBeatsRingOnFatTree(t *testing.T) {
	base := ScaleOptions{Ranks: 512, RanksPerHost: 32, Bytes: 1 << 12, Topology: scaleTestTopo}
	ring := base
	ring.Algo = ScaleRing
	hier := base
	hier.Algo = ScaleHier
	rRes := runScale(t, ring)
	hRes := runScale(t, hier)
	if hRes.Time >= rRes.Time {
		t.Fatalf("hier (%v) should beat ring (%v) on a fat tree with 32 ranks/host", hRes.Time, rRes.Time)
	}
}

// TestScaleAutoSelection: auto resolves to hier with locality, rd for flat
// power-of-two worlds, ring otherwise.
func TestScaleAutoSelection(t *testing.T) {
	cases := []struct {
		o    ScaleOptions
		want ScaleAlgo
	}{
		{ScaleOptions{Ranks: 256, RanksPerHost: 16}, ScaleHier},
		{ScaleOptions{Ranks: 64, RanksPerHost: 64}, ScaleRD},
		{ScaleOptions{Ranks: 48, RanksPerHost: 48}, ScaleRing},
	}
	for _, tc := range cases {
		res, err := RunScale(tc.o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Algo != tc.want {
			t.Fatalf("Ranks=%d RPH=%d resolved %v, want %v", tc.o.Ranks, tc.o.RanksPerHost, res.Algo, tc.want)
		}
	}
	if _, err := RunScale(ScaleOptions{Ranks: 48, RanksPerHost: 48, Algo: ScaleRD}); err == nil {
		t.Fatal("recursive doubling must reject non-power-of-two rank counts")
	} else if !strings.Contains(err.Error(), "power-of-two") || !strings.Contains(err.Error(), "48") {
		t.Fatalf("rd rejection should name the constraint and the count, got %v", err)
	}
	if _, err := RunScale(ScaleOptions{Ranks: 0}); err == nil {
		t.Fatal("zero ranks must be rejected")
	}
}

// TestScaleSingletons: degenerate worlds (one rank; one host) terminate.
func TestScaleSingletons(t *testing.T) {
	for _, o := range []ScaleOptions{
		{Ranks: 1, RanksPerHost: 1, Algo: ScaleRing},
		{Ranks: 1, RanksPerHost: 1, Algo: ScaleRD},
		{Ranks: 1, RanksPerHost: 1, Algo: ScaleHier},
		{Ranks: 8, RanksPerHost: 8, Algo: ScaleHier},
	} {
		if res := runScale(t, o); res.Time < 0 {
			t.Fatalf("%v: negative time", o)
		}
	}
}
