package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cmpi/internal/fault"
	"cmpi/internal/mpi"
	rec "cmpi/internal/recover"
	"cmpi/internal/sim"
)

// RecoveryExtension demonstrates the survive-and-finish story: a golden
// workload that checkpoints as it goes loses a rank mid-run and still
// finishes — restarted with the casualty respawned on the healthy host,
// restarted shrunken to the survivors, or repaired in-world with a ULFM-style
// communicator shrink — always reproducing the fault-free answer bit for
// bit. The final row is the seeded chaos harness: a random fault plan with a
// fatal crash folded in is ddmin-shrunk to the minimal failing repro.
func RecoveryExtension(sc Scale) (*Table, error) {
	procs := 8
	if sc == Full {
		procs = 16
	}
	// Chunk count divisible by both the full and the shrunken world size, so
	// the block distribution stays exact across a shrink-restart.
	chunks := procs * (procs - 1)
	const chaosSeed = 42

	t := &Table{
		ID:      "Extension: recovery",
		Title:   fmt.Sprintf("Checkpoint/restart and shrink-and-respawn recovery (%d ranks, 2 hosts)", procs),
		Columns: []string{"scenario", "final ranks", "attempts", "ckpts", "time (us)", "outcome"},
		Notes: "A rank is killed at ~3/5 of the fault-free runtime; every recovery mode resumes " +
			"from the latest coordinated checkpoint and reproduces the fault-free result exactly. " +
			"The two respawn rows are identical — recovery stays deterministic; times are per-world " +
			"virtual times (the clock restarts at zero in a rebuilt world). The chaos row " +
			fmt.Sprintf("fuzzes the job with fault.RandomPlan(seed=%d) plus a crash and ddmin-shrinks ", chaosSeed) +
			"the failing plan to its minimal repro (attempts = probe runs); rerun it with " +
			fmt.Sprintf("'repro -fault-seed %d'.", chaosSeed),
	}

	expected := recGoldenExpected(chunks)
	runGolden := func(plan *fault.Plan, policy rec.Policy) (*rec.Report, int, bool, error) {
		d, err := clusterDeploy(2, 0, procs, true)
		if err != nil {
			return nil, 0, false, err
		}
		opts := mpi.DefaultOptions()
		opts.FaultPlan = plan
		w, err := mpi.NewWorld(d, opts)
		if err != nil {
			return nil, 0, false, err
		}
		var final []float64
		store := rec.NewStore()
		rep, err := w.RunRecoverable(
			mpi.RecoverOptions{Policy: policy, MaxRestarts: 3, Store: store},
			recGoldenBody(chunks, &final))
		if err != nil {
			return rep, 0, false, err
		}
		correct := len(final) == len(expected)
		for i := range final {
			if !correct || final[i] != expected[i] {
				correct = false
				break
			}
		}
		return rep, store.Len(), correct, nil
	}

	// Fault-free baseline first: its runtime anchors the crash instant for
	// every recovery scenario.
	baseRep, baseCkpts, baseOK, err := runGolden(nil, rec.PolicyRespawn)
	if err != nil {
		return nil, fmt.Errorf("fault-free: %w", err)
	}
	crashAt := baseRep.FinalTime * 3 / 5
	victim := procs / 2
	crashPlan := func() *fault.Plan { return fault.NewPlan().RankCrash(victim, crashAt) }
	t.AddRow("fault-free", fmt.Sprintf("%d", baseRep.FinalSize), "1",
		fmt.Sprintf("%d", baseCkpts), fmtF(baseRep.FinalTime.Micros()), outcomeOf(baseOK))

	type row struct{ cells []string }
	kind := []string{"respawn", "respawn-repeat", "shrink", "inworld", "chaos"}
	rows, err := mapPoints(len(kind), func(i int) (row, error) {
		switch kind[i] {
		case "respawn", "respawn-repeat", "shrink":
			policy := rec.PolicyRespawn
			if kind[i] == "shrink" {
				policy = rec.PolicyShrink
			}
			rep, ckpts, ok, err := runGolden(crashPlan(), policy)
			if err != nil {
				return row{}, fmt.Errorf("%s: %w", kind[i], err)
			}
			name := "crash + " + policy.String() + "-restart"
			if kind[i] == "respawn-repeat" {
				name += " (repeat)"
			}
			return row{[]string{name, fmt.Sprintf("%d", rep.FinalSize),
				fmt.Sprintf("%d", rep.Attempts), fmt.Sprintf("%d", ckpts),
				fmtF(rep.FinalTime.Micros()), outcomeOf(ok && rep.Recovered)}}, nil
		case "inworld":
			elapsed, survivors, ok, err := runInWorldShrink(procs, victim, crashAt)
			if err != nil {
				return row{}, fmt.Errorf("in-world shrink: %w", err)
			}
			return row{[]string{"crash + in-world shrink", fmt.Sprintf("%d", survivors),
				"1", "0", fmtF(elapsed.Micros()), outcomeOf(ok)}}, nil
		case "chaos":
			before, after, probes, min, err := chaosHunt(chaosSeed, procs)
			if err != nil {
				return row{}, fmt.Errorf("chaos: %w", err)
			}
			return row{[]string{fmt.Sprintf("chaos seed=%d", chaosSeed), "-",
				fmt.Sprintf("%d", probes), "-", "-",
				fmt.Sprintf("shrunk %d->%d events: %s", before, after, min)}}, nil
		}
		return row{}, fmt.Errorf("unknown scenario %q", kind[i])
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r.cells...)
	}
	return t, nil
}

func outcomeOf(ok bool) string {
	if ok {
		return "correct"
	}
	return "WRONG"
}

// recGoldenExpected is the analytic final state: the last iteration's value
// for every chunk, independent of how many ranks computed it.
func recGoldenExpected(chunks int) []float64 {
	const vals, iters = 4, 6
	full := make([]float64, chunks*vals)
	for c := 0; c < chunks; c++ {
		for v := 0; v < vals; v++ {
			full[c*vals+v] = recGoldenVal(c, iters-1, v)
		}
	}
	return full
}

func recGoldenVal(chunk, iter, v int) float64 {
	return float64(chunk*1000003 + iter*7919 + v*97)
}

// recGoldenBody is the restartable golden workload: block-distributed chunks
// recomputed and allgathered per iteration, checkpointing every second
// iteration, resuming from the checkpointed iteration on a restore. Every
// value is a pure function of (chunk, iteration), so the final array is
// byte-identical for any rank count and any crash/restore history.
func recGoldenBody(chunks int, out *[]float64) func(r *mpi.Rank) error {
	const vals, iters, ckptStep = 4, 6, 2
	return func(r *mpi.Rank) error {
		start := 0
		if blob, _, ok := r.Restored(); ok {
			start = int(binary.BigEndian.Uint64(blob))
		}
		size := r.Size()
		per := chunks / size
		// Every iteration overwrites all of mine, buf, all and full, so one
		// of each serves the whole run.
		mine := make([]float64, per*vals)
		buf, all := r.AllocMem(8 * len(mine))[:0], r.AllocMem(8*len(mine)*size)
		defer r.FreeMem(buf)
		defer r.FreeMem(all)
		full := make([]float64, 0, len(mine)*size)
		for iter := start; iter < iters; iter++ {
			for c := 0; c < per; c++ {
				for v := 0; v < vals; v++ {
					mine[c*vals+v] = recGoldenVal(r.Rank()*per+c, iter, v)
				}
			}
			buf = mpi.AppendFloat64s(buf[:0], mine)
			r.Allgather(buf, all)
			if r.Failed() {
				return fmt.Errorf("rank %d: peer failure during iteration %d", r.Rank(), iter)
			}
			full = mpi.DecodeFloat64sInto(full[:0], all)
			if next := iter + 1; next%ckptStep == 0 && next < iters {
				var blob [8]byte
				binary.BigEndian.PutUint64(blob[:], uint64(next))
				if err := r.Checkpoint(blob[:]); err != nil {
					return err
				}
			}
			r.Compute(2000)
		}
		if r.Rank() == 0 {
			*out = full
		}
		return nil
	}
}

// runInWorldShrink kills a rank and lets the survivors repair the world
// communicator with Comm.Shrink, finishing on the survivor communicator
// without a restart. Reports the survivor count and whether every survivor
// finished with correct collective results.
func runInWorldShrink(procs, victim int, crashAt sim.Time) (sim.Time, int, bool, error) {
	d, err := clusterDeploy(2, 0, procs, true)
	if err != nil {
		return 0, 0, false, err
	}
	opts := mpi.DefaultOptions()
	opts.ErrHandler = mpi.ErrorsRecover
	opts.FaultPlan = fault.NewPlan().RankCrash(victim, crashAt)
	w, err := mpi.NewWorld(d, opts)
	if err != nil {
		return 0, 0, false, err
	}
	finished := 0
	runErr := w.Run(func(r *mpi.Rank) error {
		// Compute past the crash instant, so the victim dies before anyone
		// communicates: every survivor's first collective observes the
		// failure and they all reach Shrink at the same program point.
		for r.Now() <= crashAt {
			r.Compute(2000)
		}
		comm := r.CommWorld()
		buf := mpi.EncodeFloat64s([]float64{1})
		comm.Allreduce(buf, mpi.SumFloat64)
		if !r.Failed() {
			return fmt.Errorf("rank %d: no failure observed after the victim's death", r.Rank())
		}
		nc := comm.Shrink()
		m := nc.Size()
		// A buffer of its own for the survivor rounds, kept across them: buf
		// belongs to the collective that failed.
		sum, dec := make([]byte, 0, 8), make([]float64, 0, 1)
		for round := 0; round < 4; round++ {
			sum = mpi.AppendFloat64s(sum[:0], []float64{float64(nc.Rank() + round)})
			nc.Allreduce(sum, mpi.SumFloat64)
			dec = mpi.DecodeFloat64sInto(dec[:0], sum)
			if got, want := dec[0], float64(m*(m-1)/2+m*round); got != want {
				return fmt.Errorf("rank %d round %d: survivor allreduce = %v, want %v", r.Rank(), round, got, want)
			}
		}
		nc.Barrier()
		finished++
		return nil
	})
	var ce *mpi.CrashError
	if !errors.As(runErr, &ce) {
		return 0, 0, false, fmt.Errorf("run error %v, want the victim's crash", runErr)
	}
	return w.MaxBodyTime(), procs - 1, finished == procs-1, nil
}

// chaosHunt is the seeded chaos harness: fuzz the job with a random fault
// plan plus a fatal crash, verify it fails, then ddmin-shrink the plan to a
// 1-minimal failing repro. Returns the event counts before and after, the
// number of probe runs the reduction spent, and the minimal plan's rendering.
func chaosHunt(seed int64, procs int) (before, after, probes int, minimal string, err error) {
	plan := fault.RandomPlan(seed, 2, procs, 6, 200*sim.Microsecond)
	plan.RankCrash(1, 40*sim.Microsecond)
	var proberr error
	fails := func(p *fault.Plan) bool {
		d, derr := clusterDeploy(2, 0, procs, true)
		if derr != nil {
			proberr = derr
			return false
		}
		opts := mpi.DefaultOptions()
		opts.ErrHandler = mpi.ErrorsRecover
		opts.FaultPlan = p
		w, werr := mpi.NewWorld(d, opts)
		if werr != nil {
			proberr = werr
			return false
		}
		probes++
		runErr := w.Run(func(r *mpi.Rank) error {
			vec := mpi.EncodeFloat64s(make([]float64, 4096))
			for round := 0; round < 3; round++ {
				r.Allreduce(vec, mpi.SumFloat64)
				if r.Failed() {
					return fmt.Errorf("rank %d: peer died", r.Rank())
				}
				r.Compute(500)
			}
			return nil
		})
		var ce *mpi.CrashError
		return errors.As(runErr, &ce)
	}
	if !fails(plan) {
		if proberr != nil {
			return 0, 0, 0, "", proberr
		}
		return 0, 0, 0, "", fmt.Errorf("seed %d does not reproduce a failure", seed)
	}
	min := fault.ShrinkPlan(plan, fails)
	if proberr != nil {
		return 0, 0, 0, "", proberr
	}
	if len(min.Events) == 0 {
		return 0, 0, 0, "", fmt.Errorf("shrink lost the failure")
	}
	e := min.Events[0]
	desc := fmt.Sprintf("%v rank=%d at=%v", e.Kind, e.Rank, e.At)
	return len(plan.Events), len(min.Events), probes, desc, nil
}

// Chaos runs the seeded chaos harness standalone (repro -fault-seed N): build
// fault.RandomPlan(seed) plus a fatal crash, verify the job fails under it,
// ddmin-shrink the plan to the minimal failing repro, and print the result
// with the seed in the header so any finding is replayable by seed alone.
func Chaos(seed int64, sc Scale, w io.Writer) error {
	procs := 8
	if sc == Full {
		procs = 16
	}
	fmt.Fprintf(w, "== chaos hunt: seed=%d (%d ranks, 2 hosts) ==\n", seed, procs)
	before, after, probes, minimal, err := chaosHunt(seed, procs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  plan: %d events (random plan + 1 crash)\n", before)
	fmt.Fprintf(w, "  shrunk to %d event(s) in %d probe runs\n", after, probes)
	fmt.Fprintf(w, "  minimal repro: %s\n", minimal)
	fmt.Fprintf(w, "  rerun: repro -fault-seed %d\n", seed)
	return nil
}
