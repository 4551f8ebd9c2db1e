package mpi

import (
	"errors"
	"strings"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/ib"
	"cmpi/internal/sim"
)

// allreduceBody returns a job body doing rounds of 256 KiB Allreduces with a
// correctness check; the chunk sizes exercise SHM, CMA and HCA rendezvous.
func allreduceBody(t *testing.T, rounds int) func(r *Rank) error {
	return func(r *Rank) error {
		vec := make([]float64, 32768)
		for round := 0; round < rounds; round++ {
			for i := range vec {
				vec[i] = float64(r.Rank() + round)
			}
			buf := EncodeFloat64s(vec)
			r.Allreduce(buf, SumFloat64)
			n := r.Size()
			want := float64(n*(n-1)/2 + n*round)
			for i, v := range DecodeFloat64s(buf) {
				if v != want {
					t.Errorf("rank %d round %d elem %d = %v, want %v", r.Rank(), round, i, v, want)
					break
				}
			}
			r.Compute(500)
		}
		return nil
	}
}

// TestFaultyAllreduceDegradesGracefully is the headline acceptance scenario:
// a plan injecting a link flap, a CMA failure and a SHM-ring attach failure
// still completes an Allreduce-bearing job with correct results, and the
// profile shows nonzero retry/fallback counters.
func TestFaultyAllreduceDegradesGracefully(t *testing.T) {
	opts := DefaultOptions()
	opts.Profile = true
	opts.FaultPlan = fault.NewPlan().
		LinkFlap(0, 50*sim.Microsecond, 300*sim.Microsecond).
		CMAFail(0, 0, 0).
		ShmAttachFail(1, 0, 0, "cmpi.ring.").
		SendDrops(1, 0, 0, 3)
	w := testWorld(t, "2host4cont", 8, opts)
	if err := w.Run(allreduceBody(t, 4)); err != nil {
		t.Fatalf("faulty run failed: %v", err)
	}
	fs := w.Prof.TotalFaults()
	if fs.CMAFallbacks == 0 {
		t.Errorf("CMA failure on host 0 produced no CMA->SHM fallbacks: %+v", fs)
	}
	if fs.ShmFallbacks == 0 {
		t.Errorf("ring attach failure on host 1 produced no SHM->HCA fallbacks: %+v", fs)
	}
	if fs.Retransmits == 0 {
		t.Errorf("3 dropped sends on host 1 produced no retransmissions: %+v", fs)
	}
	if fs.RetryExhausted != 0 {
		t.Errorf("drops within the retry budget must not exhaust: %+v", fs)
	}
}

// TestDetectorDegradation fails the locality detector's shared segment in a
// fully isolated deployment: ranks fall back to hostname locality, all
// intra-host traffic runs on the HCA loopback, and results stay correct.
func TestDetectorDegradation(t *testing.T) {
	opts := DefaultOptions()
	opts.Mode = core.ModeLocalityAware
	opts.Profile = true
	opts.FaultPlan = fault.NewPlan().
		ShmAttachFail(fault.Any, 0, 0, core.LocalitySegmentPrefix)
	// One rank per isolated container: every pair is cross-container, so
	// no namespace is shared and all traffic must use the HCA loopback.
	w := testWorld(t, "isolated", 2, opts)
	if err := w.Run(allreduceBody(t, 2)); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	fs := w.Prof.TotalFaults()
	if got, want := fs.DetectorFallbacks, uint64(2); got != want {
		t.Errorf("DetectorFallbacks = %d, want %d (every rank)", got, want)
	}
	ch := w.Prof.TotalChannels()
	if ch.Ops[core.ChannelHCA] == 0 {
		t.Errorf("degraded detector must leave traffic on the HCA loopback: %+v", ch.Ops)
	}
	if ch.Ops[core.ChannelSHM] != 0 || ch.Ops[core.ChannelCMA] != 0 {
		t.Errorf("isolated namespaces cannot carry SHM/CMA traffic: %+v", ch.Ops)
	}
}

// TestFaultDeterminism runs the same fault plan twice and demands identical
// virtual-time results and identical profiles.
func TestFaultDeterminism(t *testing.T) {
	plan := fault.NewPlan().
		LinkFlap(0, 20*sim.Microsecond, 100*sim.Microsecond).
		LinkDegrade(1, 0, 2*sim.Millisecond, 3).
		CMAFail(0, 0, 0).
		ShmAttachFail(1, 0, 0, "cmpi.ring.").
		SendDrops(0, 0, 0, 2).
		Straggler(3, 0, 0, 2)
	digest := func() string {
		opts := DefaultOptions()
		opts.Profile = true
		opts.FaultPlan = plan
		w := testWorld(t, "2host4cont", 8, opts)
		if err := w.Run(allreduceBody(t, 3)); err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return w.Digest()
	}
	if a, b := digest(), digest(); a != b {
		t.Errorf("identical fault plans diverged: digest %s, then %s", a, b)
	}
}

// TestRetryExhaustionFatal drives a rendezvous send into retry exhaustion
// with ErrorsAreFatal: the job aborts with a typed per-rank error chain.
func TestRetryExhaustionFatal(t *testing.T) {
	opts := DefaultOptions()
	opts.Tunables.RetryCount = 2
	opts.Tunables.RetryTimeout = core.RetryTimeoutFromExponent(0)
	opts.FaultPlan = fault.NewPlan().SendDrops(0, 0, 0, 1000)
	w := testWorld(t, "2host", 2, opts)
	err := w.Run(func(r *Rank) error {
		buf := make([]byte, 64<<10)
		if r.Rank() == 0 {
			r.Send(1, 7, buf)
		} else {
			r.Recv(0, 7, buf)
		}
		return nil
	})
	if err == nil {
		t.Fatal("retry exhaustion under ErrorsAreFatal must fail the job")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want a *RankError in the chain", err, err)
	}
	var ce *ChannelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *ChannelError in the chain", err)
	}
	// Whichever side aborts the job first: the sender sees the exhausted
	// retry count, the receiver the remote abort (exact retry accounting is
	// covered by the ib package tests).
	switch ce.Status {
	case ib.WCRetryExceeded:
		if ce.Retries != 3 {
			t.Errorf("ChannelError.Retries = %d, want 3 (retry_cnt=2 + final)", ce.Retries)
		}
	case ib.WCRemoteAbort:
		// Receiver side observed the break.
	default:
		t.Errorf("ChannelError.Status = %v, want retry-exceeded or remote-abort", ce.Status)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Errorf("err = %v, want errors.Is(err, fault.ErrInjected)", err)
	}
}

// TestRetryCountCappedAtVerbsMaximum: retry_cnt is a 3-bit verbs field, and
// the RC timeout doubles on every retry. At the maximum, 7, a message whose
// every transmission drops exhausts its retries, and the receiver learns of it
// only after the whole backoff. A larger count is refused: at 64 the backoff
// overflowed virtual time and the receiver finished before the sender.
func TestRetryCountCappedAtVerbsMaximum(t *testing.T) {
	d, err := cluster.Native(cluster.MustNew(cluster.Spec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}), 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.ErrHandler = ErrorsReturn
	opts.FaultPlan = fault.NewPlan().SendDrops(0, 0, 0, 100)
	for _, n := range []int{core.MaxRetryCount + 1, 64} {
		opts.Tunables.RetryCount = n
		if _, err := NewWorld(d, opts); err == nil || !strings.Contains(err.Error(), "retry count") {
			t.Errorf("RetryCount %d: NewWorld error %v, want one naming the retry count", n, err)
		}
	}
	opts.Tunables.RetryCount = core.MaxRetryCount
	w, err := NewWorld(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var done [2]sim.Time
	if err := w.Run(func(r *Rank) error {
		buf := make([]byte, 64)
		if r.Rank() == 0 {
			r.Send(1, 7, buf)
		} else {
			req := r.Irecv(0, 7, buf)
			r.Wait(req)
			if !errors.Is(req.Err(), fault.ErrInjected) {
				t.Errorf("receive on a broken channel: error %v, want ErrInjected in chain", req.Err())
			}
		}
		done[r.Rank()] = r.Now()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Eight transmissions over a doubling timeout: the pair breaks 255 base
	// timeouts after the first post.
	backoff := opts.Tunables.RetryTimeout * (1<<(core.MaxRetryCount+1) - 1)
	if done[1] < backoff || done[1] < done[0] {
		t.Errorf("receiver finished at %v, want after the %v backoff and after the sender (%v)", done[1], backoff, done[0])
	}
}

// TestRetryExhaustionReturn repeats the scenario with ErrorsReturn: both
// sides' requests complete with an error, the ranks continue, and the job
// finishes without a global failure.
func TestRetryExhaustionReturn(t *testing.T) {
	opts := DefaultOptions()
	opts.ErrHandler = ErrorsReturn
	opts.Tunables.RetryCount = 2
	opts.Tunables.RetryTimeout = core.RetryTimeoutFromExponent(0)
	opts.FaultPlan = fault.NewPlan().SendDrops(0, 0, 0, 1000)
	w := testWorld(t, "2host", 2, opts)
	err := w.Run(func(r *Rank) error {
		buf := make([]byte, 64<<10)
		var req *Request
		if r.Rank() == 0 {
			req = r.Isend(1, 7, buf)
		} else {
			req = r.Irecv(0, 7, buf)
		}
		r.Wait(req)
		if req.Err() == nil {
			t.Errorf("rank %d: request on a broken channel completed without error", r.Rank())
		} else if !errors.Is(req.Err(), fault.ErrInjected) {
			t.Errorf("rank %d: req.Err() = %v, want ErrInjected in chain", r.Rank(), req.Err())
		}
		// The rank survives the channel loss and keeps computing.
		r.Compute(100)
		return nil
	})
	if err != nil {
		t.Fatalf("ErrorsReturn must not fail the job: %v", err)
	}
}

// TestRankCrash kills one rank mid-computation; the job aborts with a
// *CrashError identifying the victim, and no side hangs.
func TestRankCrash(t *testing.T) {
	opts := DefaultOptions()
	opts.FaultPlan = fault.NewPlan().RankCrash(1, 30*sim.Microsecond)
	w := testWorld(t, "native", 4, opts)
	err := w.Run(func(r *Rank) error {
		for i := 0; i < 100; i++ {
			r.Compute(100)
		}
		r.Barrier()
		return nil
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *CrashError in the chain", err)
	}
	if ce.Rank != 1 {
		t.Errorf("CrashError.Rank = %d, want 1", ce.Rank)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Errorf("err = %v, want *RankError for rank 1", err)
	}
}

// TestStragglerStretchesRuntime verifies a straggler window slows the whole
// job (the barrier waits for the slow rank) without changing results.
func TestStragglerStretchesRuntime(t *testing.T) {
	elapsed := func(factor float64) sim.Time {
		opts := DefaultOptions()
		if factor > 1 {
			opts.FaultPlan = fault.NewPlan().Straggler(2, 0, 0, factor)
		}
		w := testWorld(t, "native", 4, opts)
		if err := w.Run(func(r *Rank) error {
			r.Compute(10000)
			r.Barrier()
			return nil
		}); err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return w.MaxBodyTime()
	}
	clean, slow := elapsed(1), elapsed(4)
	if slow < clean*3 {
		t.Errorf("4x straggler moved the job only from %v to %v, want >= 3x", clean, slow)
	}
}

// TestRandomPlanStress drives a seeded random fault plan through a full job;
// it must neither hang, panic, nor corrupt results (run under -race in CI).
func TestRandomPlanStress(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		plan := fault.RandomPlan(seed, 2, 8, 12, 2*sim.Millisecond)
		opts := DefaultOptions()
		opts.Profile = true
		opts.FaultPlan = plan
		w := testWorld(t, "2host4cont", 8, opts)
		if err := w.Run(allreduceBody(t, 3)); err != nil {
			t.Fatalf("seed %d: run failed: %v", seed, err)
		}
	}
}
