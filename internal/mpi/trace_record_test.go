package mpi

import (
	"bytes"
	"errors"
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

// retryTraceRun is the lost-peer matrix's chan-2host loss recorded with drops
// instead of its plan's: rank 1 sends rank 0 one eager message after lossAt,
// then waits for rank 0's reply. With more drops than RetryCount the pair
// breaks and both receives fail; with fewer the send is retransmitted and the
// reply arrives.
func retryTraceRun(drops int) invariant.Run {
	return func(t *testing.T, p invariant.Point) invariant.Result {
		var stream bytes.Buffer
		opts := DefaultOptions()
		lossChan2Host.set(&opts)
		opts.FaultPlan = fault.NewPlan().SendDrops(1, lossAt, 0, drops)
		opts.Record = trace.NewRecorder(&stream)
		w := testWorld(t, lossChan2Host.scenario, 2, opts)
		err := w.Run(func(r *Rank) error {
			if r.Rank() == 1 {
				for r.Now() < lossAt {
					r.Compute(1000)
				}
				r.Send(0, tagBreak, make([]byte, 64))
				req := r.Irecv(0, tagLoss, make([]byte, 8))
				r.Wait(req)
				return req.Err()
			}
			req := r.Irecv(1, tagBreak, make([]byte, 64))
			r.Wait(req)
			if req.Err() == nil {
				r.Send(1, tagLoss, make([]byte, 8))
			}
			return req.Err()
		})
		var broken *ChannelError
		if lost := drops > opts.Tunables.RetryCount; lost != errors.As(err, &broken) {
			t.Errorf("%d drops over %d retries: Run returned %v", drops, opts.Tunables.RetryCount, err)
		}
		if opts.Record.Err() != nil {
			t.Fatalf("recorder: %v", opts.Record.Err())
		}
		return invariant.Result{Digest: w.Digest(), Trace: stream.Bytes()}
	}
}

// TestRetryTracePinned pins the transport's fault records: one RC pair
// retransmitting a dropped send and one breaking after its retries run out.
// Between them the traces hold both a retransmit and a qp-break record.
func TestRetryTracePinned(t *testing.T) {
	rows := []pinnedRow{
		{"retransmit", retryTraceRun(1), "706573f4a1921881046d99a6435e272268b1111b9527559c5e16b3c5452814a5"},
		{"qp-break", retryTraceRun(1000), "26264346bd3adbdd2955256a7e4a7cbfb9b7a7efc9e1eed885da84ca11b76498"},
	}
	count := map[trace.Op]int{}
	for _, b := range checkPinned(t, rows, invariant.Point{}) {
		tr, err := trace.Read(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range tr.Records {
			count[rec.Op]++
		}
	}
	if count[trace.OpRetransmit] == 0 || count[trace.OpQPBreak] == 0 {
		t.Errorf("%d retransmit and %d qp-break records, want at least one of each",
			count[trace.OpRetransmit], count[trace.OpQPBreak])
	}
}
