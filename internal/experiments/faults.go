package experiments

import (
	"fmt"

	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/mpi"
	"cmpi/internal/profile"
	"cmpi/internal/sim"
)

// FaultsExtension demonstrates graceful degradation under a deterministic
// fault plan: a job that loses its IB uplink for a window, its CMA channel,
// and a shared-memory ring still completes an Allreduce correctly — traffic
// reroutes onto the surviving channels and RC retransmission absorbs drops.
// The faulty scenario runs twice; identical rows are the determinism check.
func FaultsExtension(sc Scale) (*Table, error) {
	procs, rounds := 8, 4
	if sc == Full {
		procs, rounds = 32, 8
	}
	t := &Table{
		ID:      "Extension: faults",
		Title:   "Allreduce under injected faults (2 hosts, 2 containers/host)",
		Columns: []string{"scenario", "time (us)", "retransmits", "retry-exhausted", "shm-fallbacks", "cma-fallbacks", "correct"},
		Notes: "Graceful degradation: CMA failure falls back to SHM-staged rendezvous, " +
			"a dead ring falls back to the HCA channel, dropped sends retransmit. " +
			"The two faulty rows are identical — fault runs stay deterministic.",
	}

	// Faults land on both hosts: host 0 loses its CMA channel and its uplink
	// flaps; host 1 cannot attach message rings (detector segments still
	// attach) and drops a few transmissions into the RC retry path.
	plan := fault.NewPlan().
		LinkFlap(0, 50*sim.Microsecond, 300*sim.Microsecond).
		CMAFail(0, 0, 0).
		ShmAttachFail(1, 0, 0, "cmpi.ring.").
		SendDrops(1, 0, 0, 3)

	run := func(p *fault.Plan) (sim.Time, profile.FaultStats, bool, error) {
		d, err := clusterDeploy(2, 2, procs, false)
		if err != nil {
			return 0, profile.FaultStats{}, false, err
		}
		opts := mpi.DefaultOptions()
		opts.Mode = core.ModeLocalityAware
		opts.Profile = true
		opts.FaultPlan = p
		w, err := mpi.NewWorld(d, opts)
		if err != nil {
			return 0, profile.FaultStats{}, false, err
		}
		correct := true
		err = w.Run(func(r *mpi.Rank) error {
			// 256 KiB payloads: the reduce-scatter chunks (payload / ranks)
			// land above the SHM eager and IBA eager thresholds, exercising
			// the CMA and HCA rendezvous protocols the plan breaks.
			// One vector and one wire buffer for every round: encode into the
			// kept bytes, reduce in place, decode back over the vector.
			vec := make([]float64, 32768)
			buf := r.AllocMem(8 * len(vec))[:0]
			defer r.FreeMem(buf)
			for round := 0; round < rounds; round++ {
				for i := range vec {
					vec[i] = float64(r.Rank() + round)
				}
				buf = mpi.AppendFloat64s(buf[:0], vec)
				r.Allreduce(buf, mpi.SumFloat64)
				vec = mpi.DecodeFloat64sInto(vec[:0], buf)
				n := r.Size()
				want := float64(n*(n-1)/2 + n*round)
				for _, v := range vec {
					if v != want {
						correct = false
					}
				}
				r.Compute(1000)
			}
			return nil
		})
		if err != nil {
			return 0, profile.FaultStats{}, false, err
		}
		return w.MaxBodyTime(), w.Prof.TotalFaults(), correct, nil
	}

	// The Plan is read-only once built (each world derives its own injector
	// with private budgets), so the faulty scenarios can share it across
	// concurrent points.
	scenarios := []struct {
		name string
		plan *fault.Plan
	}{
		{"clean", nil},
		{"faulty", plan},
		{"faulty (repeat)", plan},
	}
	type outcome struct {
		elapsed sim.Time
		fs      profile.FaultStats
		correct bool
	}
	rows, err := mapPoints(len(scenarios), func(i int) (outcome, error) {
		elapsed, fs, correct, err := run(scenarios[i].plan)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", scenarios[i].name, err)
		}
		return outcome{elapsed, fs, correct}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, s := range scenarios {
		t.AddRow(s.name, fmtF(rows[i].elapsed.Micros()),
			fmt.Sprintf("%d", rows[i].fs.Retransmits), fmt.Sprintf("%d", rows[i].fs.RetryExhausted),
			fmt.Sprintf("%d", rows[i].fs.ShmFallbacks), fmt.Sprintf("%d", rows[i].fs.CMAFallbacks),
			fmt.Sprintf("%v", rows[i].correct))
	}
	return t, nil
}
