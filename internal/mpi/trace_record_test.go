package mpi

import (
	"bytes"
	"testing"

	"cmpi/internal/fault"
	"cmpi/internal/invariant"
	"cmpi/internal/trace"
)

// tracedWorkload drives every record kind the tracer knows outside faults:
// SHM/CMA/HCA eager and rendezvous traffic, a synchronous send, a self-send,
// collectives, and one-sided accesses.
func tracedWorkload(r *Rank) error {
	n := r.Size()
	me := r.Rank()

	small := make([]byte, 64)
	in := make([]byte, 64)
	r.Sendrecv((me+1)%n, 1, small, (me-1+n)%n, 1, in)

	big := make([]byte, 256<<10)
	rq := r.Irecv(AnySource, 2, make([]byte, 256<<10))
	r.Send((me+2)%n, 2, big)
	r.Wait(rq)

	// Synchronous send between ring neighbours (forced rendezvous).
	if me%2 == 0 {
		r.Ssend((me+1)%n, 3, make([]byte, 128))
	} else {
		r.Recv((me-1+n)%n, 3, make([]byte, 128))
	}

	// Self delivery.
	sq := r.Irecv(me, 4, make([]byte, 32))
	r.Send(me, 4, make([]byte, 32))
	r.Wait(sq)

	sum := EncodeInt64s([]int64{int64(me)})
	r.Allreduce(sum, SumInt64)

	// One-sided traffic on every reachable channel.
	win := r.WinCreate(make([]byte, 1<<20))
	win.Put((me+1)%n, 0, make([]byte, 64))
	win.Put((me+3)%n, 0, make([]byte, 1<<18))
	got := make([]byte, 64)
	win.Get((me+1)%n, 64, got)
	win.Flush()
	win.Fence()
	win.Free()

	r.Barrier()
	return nil
}

// tracedJob is tracedWorkload on 16 ranks over two hosts, profiled, under an
// optional fault plan.
func tracedJob(plan *fault.Plan, check worldCheck) invariant.Run {
	opts := DefaultOptions()
	opts.Profile = true
	opts.FaultPlan = plan
	return row(scenario("2host4cont", 16), opts, blocking(tracedWorkload), check)
}

// TestReplayReconstructsProfile checks the replay acceptance criterion: the
// per-rank channel counters reconstructed from the trace alone equal the live
// profiler's, exactly, without running any world.
func TestReplayReconstructsProfile(t *testing.T) {
	var w *World
	res := invariant.At(t, tracedJob(nil, func(_ *testing.T, _ invariant.Point, fw *World) { w = fw }),
		invariant.Point{Record: true})
	tr, err := trace.Read(bytes.NewReader(res.Trace))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	s := trace.Replay(tr)
	if s.Anomalies != 0 {
		t.Fatalf("replay found %d anomalies", s.Anomalies)
	}
	if s.UnmatchedSends != 0 {
		t.Fatalf("replay found %d unmatched sends in a successful run", s.UnmatchedSends)
	}
	if s.Ranks != w.Size() {
		t.Fatalf("replay ranks = %d, want %d", s.Ranks, w.Size())
	}
	for i := range s.PerRank {
		if s.PerRank[i] != w.Prof.Ranks[i].Channels {
			t.Errorf("rank %d: replayed channels %+v, live profiler %+v",
				i, s.PerRank[i], w.Prof.Ranks[i].Channels)
		}
	}
	if s.Rendezvous == 0 {
		t.Error("no rendezvous handshakes replayed; RTS records missing")
	}
}

// faultTraceJob is tracedJob under a fault plan: ring attach vetoes on host
// 1, two dropped sends.
func faultTraceJob(check worldCheck) invariant.Run {
	return tracedJob(fault.NewPlan().ShmAttachFail(1, 0, 0, "cmpi.ring.").SendDrops(1, 0, 0, 2), check)
}

// TestReplayReconstructsFaultCounters runs a fault-injected recording and
// checks the substrate fault events land in the trace and replay to the
// profiler's fault counters.
func TestReplayReconstructsFaultCounters(t *testing.T) {
	var w *World
	res := invariant.At(t, faultTraceJob(func(_ *testing.T, _ invariant.Point, fw *World) { w = fw }),
		invariant.Point{Record: true})
	tr, err := trace.Read(bytes.NewReader(res.Trace))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	s := trace.Replay(tr)
	faults := w.Prof.TotalFaults()
	if s.ShmFallbacks != faults.ShmFallbacks {
		t.Errorf("replayed ShmFallbacks = %d, profiler %d", s.ShmFallbacks, faults.ShmFallbacks)
	}
	if s.Retransmits != faults.Retransmits {
		t.Errorf("replayed Retransmits = %d, profiler %d", s.Retransmits, faults.Retransmits)
	}
	if faults.ShmFallbacks > 0 && s.AttachFails == 0 {
		t.Error("shm fallbacks occurred but no attach-fail records were emitted")
	}
}
