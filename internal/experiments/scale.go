package experiments

import (
	"fmt"

	"cmpi/internal/ib"
	"cmpi/internal/mpi"
	"cmpi/internal/sim"
)

// scaleTopo is the fat tree the scale sweep runs over: 8-host racks behind a
// two-stage spine, the shape the paper's conclusion gestures at when it
// argues the design can "efficiently build large scale container-based HPC
// clouds".
var scaleTopo = ib.Topology{RackSize: 8, SpineStages: 2, SpinesPerStage: 4, HopLatency: 150 * sim.Nanosecond}

// ScaleExtension is an extension beyond the paper: allreduce at rank counts
// far past the 16-host testbed, run on the O(ranks) scale proxy
// (mpi.RunScale) rather than the full per-pair runtime. The table reports the
// algorithm the proxy picked and the completion time.
func ScaleExtension(sc Scale) (*Table, error) {
	rankCounts := []int{256, 1024}
	if sc == Full {
		rankCounts = []int{256, 1024, 4096}
	}
	t := &Table{
		ID:      "Extension: scale proxy",
		Title:   "Allreduce (1 MiB) at scale on the flat-machine engine (32 ranks/host, 8-host racks)",
		Columns: []string{"ranks", "algo", "time (ms)"},
		Notes:   "Extension beyond the paper: one continuation machine per rank, no per-rank goroutine.",
	}
	res, err := mapPoints(len(rankCounts), func(i int) (*mpi.ScaleResult, error) {
		res, err := mpi.RunScale(mpi.ScaleOptions{Ranks: rankCounts[i], RanksPerHost: 32, Bytes: 1 << 20, Topology: scaleTopo})
		if err != nil {
			return nil, fmt.Errorf("%d ranks: %w", rankCounts[i], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for i, ranks := range rankCounts {
		t.AddRow(fmt.Sprintf("%d", ranks), res[i].Algo.String(), fmtF(res[i].Time.Millis()))
	}
	return t, nil
}
