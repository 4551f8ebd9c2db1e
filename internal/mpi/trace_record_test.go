package mpi

import (
	"bytes"
	"strings"
	"testing"

	"cmpi/internal/fault"
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

// runTracedJob records tracedWorkload at one dispatch width and returns the
// streamed structured trace bytes, the legacy line output, and the world.
func runTracedJob(t *testing.T, workers int) ([]byte, string, *World) {
	t.Helper()
	var stream bytes.Buffer
	var legacy strings.Builder
	opts := DefaultOptions()
	opts.Profile = true
	opts.Trace = &legacy
	opts.Record = trace.NewRecorder(&stream)
	w := testWorld(t, "2host4cont", 16, opts)
	w.Eng.SetWorkers(workers)
	if err := w.Run(tracedWorkload); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if err := opts.Record.Err(); err != nil {
		t.Fatalf("workers=%d: recorder: %v", workers, err)
	}
	return stream.Bytes(), legacy.String(), w
}

// TestTraceByteIdenticalAcrossWidths is the tracing invariant: recording a
// trace does not cost the world its footprints, and the recorded bytes —
// structured stream and legacy lines alike — are identical at every
// CMPI_SIM_WORKERS width.
func TestTraceByteIdenticalAcrossWidths(t *testing.T) {
	baseStream, baseLegacy, baseW := runTracedJob(t, 1)
	if !baseW.parallel {
		t.Fatal("traced world declared no footprints; the trace serial gate is back")
	}
	if len(baseStream) == 0 || len(baseLegacy) == 0 {
		t.Fatal("no trace output recorded")
	}
	for _, workers := range []int{2, 4, 8} {
		stream, legacy, w := runTracedJob(t, workers)
		if !bytes.Equal(stream, baseStream) {
			a, err1 := trace.Read(bytes.NewReader(baseStream))
			b, err2 := trace.Read(bytes.NewReader(stream))
			detail := "(unparseable)"
			if err1 == nil && err2 == nil {
				detail = trace.Diff(a, b)
			}
			t.Errorf("workers=%d: structured trace differs from width 1:\n%s", workers, detail)
		}
		if legacy != baseLegacy {
			t.Errorf("workers=%d: legacy trace lines differ from width 1", workers)
		}
		if workers > 1 {
			if st := w.SimStats(); st.MaxBatchWidth < 2 {
				t.Errorf("workers=%d: MaxBatchWidth = %d; tracing must not collapse epochs to one group", workers, st.MaxBatchWidth)
			}
		}
	}
}

// TestReplayReconstructsProfile checks the replay acceptance criterion: the
// per-rank channel counters reconstructed from the trace alone equal the live
// profiler's, exactly, without running any world.
func TestReplayReconstructsProfile(t *testing.T) {
	stream, _, w := runTracedJob(t, 4)
	tr, err := trace.Read(bytes.NewReader(stream))
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

// runFaultTracedJob records tracedWorkload under a fault plan — ring attach
// vetoes on host 1, two dropped sends — at one dispatch width and returns the
// streamed trace bytes and the world.
func runFaultTracedJob(t *testing.T, workers int) ([]byte, *World) {
	t.Helper()
	var stream bytes.Buffer
	opts := DefaultOptions()
	opts.Profile = true
	opts.Record = trace.NewRecorder(&stream)
	opts.FaultPlan = fault.NewPlan().
		ShmAttachFail(1, 0, 0, "cmpi.ring.").
		SendDrops(1, 0, 0, 2)
	w := testWorld(t, "2host4cont", 16, opts)
	w.Eng.SetWorkers(workers)
	if err := w.Run(tracedWorkload); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return stream.Bytes(), w
}

// TestReplayReconstructsFaultCounters runs a fault-injected recording and
// checks the substrate fault events land in the trace and replay to the
// profiler's fault counters.
func TestReplayReconstructsFaultCounters(t *testing.T) {
	run := func() (*World, *trace.Trace) {
		stream, w := runFaultTracedJob(t, 1)
		tr, err := trace.Read(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		return w, tr
	}
	w, tr := run()
	if w.parallel {
		t.Fatal("fault-injected world must declare no footprints")
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
	// Determinism: the same plan records the same trace.
	_, tr2 := run()
	if d := trace.Diff(tr, tr2); d != "" {
		t.Errorf("fault-world trace not reproducible:\n%s", d)
	}
}

// TestLegacyTraceMatchesRecordRendering cross-checks the two consumers: the
// legacy writer's output must equal the concatenated LegacyLine renderings of
// the structured records, so the two views can never drift apart.
func TestLegacyTraceMatchesRecordRendering(t *testing.T) {
	_, legacy, w := runTracedJob(t, 2)
	var sb strings.Builder
	for _, rec := range w.Opts.Record.Trace().Records {
		sb.WriteString(rec.LegacyLine())
	}
	if legacy != sb.String() {
		t.Error("legacy line output diverges from LegacyLine renderings of the structured records")
	}
}
