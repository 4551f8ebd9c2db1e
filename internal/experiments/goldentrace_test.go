package experiments

import (
	"bytes"
	"os"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/trace"
)

// TestGoldenTraceMatchesFixture regenerates the canonical trace job and
// compares it record-for-record against the committed fixture. A mismatch
// means the library's message schedule changed; if that change is intended,
// regenerate the fixture with `go run ./cmd/repro -trace-out
// internal/experiments/testdata/golden.trace` and explain the behavior
// change in the commit message.
func TestGoldenTraceMatchesFixture(t *testing.T) {
	var buf bytes.Buffer
	if err := GoldenTrace(&buf); err != nil {
		t.Fatalf("GoldenTrace: %v", err)
	}
	got, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("regenerated trace unreadable: %v", err)
	}
	fixture, err := os.ReadFile("testdata/golden.trace")
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	want, err := trace.Read(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("committed fixture unreadable: %v", err)
	}
	if d := trace.Diff(want, got); d != "" {
		t.Errorf("regenerated trace diverges from testdata/golden.trace:\n%s", d)
	}
	// The fixture is stored in canonical encoding, so semantic equality must
	// coincide with byte equality.
	if !bytes.Equal(buf.Bytes(), fixture) {
		t.Error("trace bytes differ from fixture despite equal records; fixture is not canonical")
	}
}

// TestGoldenTraceStableAcrossDispatchWidths re-records the canonical job —
// which runs with adaptive footprint decay pinned on (see GoldenTrace) — at
// epoch dispatch widths 2, 4, and 8 and requires byte-identity with the
// committed fixture. This is the decay determinism gate at the trace level:
// decayed footprints change which events may dispatch concurrently, and none
// of it may leak into the message schedule as the width varies.
func TestGoldenTraceStableAcrossDispatchWidths(t *testing.T) {
	fixture, err := os.ReadFile("testdata/golden.trace")
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	for _, width := range []string{"2", "4", "8"} {
		t.Setenv("CMPI_SIM_WORKERS", width)
		var buf bytes.Buffer
		if err := GoldenTrace(&buf); err != nil {
			t.Fatalf("width %s: GoldenTrace: %v", width, err)
		}
		if !bytes.Equal(buf.Bytes(), fixture) {
			t.Errorf("width %s: trace bytes diverge from the committed fixture", width)
		}
	}
}

// TestGoldenTraceReplays sanity-checks that the fixture replays cleanly:
// every send matched, no counter anomalies, all three channels exercised.
func TestGoldenTraceReplays(t *testing.T) {
	fixture, err := os.ReadFile("testdata/golden.trace")
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	tr, err := trace.Read(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	s := trace.Replay(tr)
	if s.Anomalies != 0 || s.UnmatchedSends != 0 {
		t.Fatalf("fixture replay: %d anomalies, %d unmatched sends", s.Anomalies, s.UnmatchedSends)
	}
	total := s.Total()
	for ch, ops := range total.Ops {
		if ops == 0 {
			t.Errorf("channel %d carries no traffic in the golden job", ch)
		}
	}
	if s.Rendezvous == 0 {
		t.Error("golden job produced no rendezvous handshakes")
	}
}

// TestGoldenTraceFatTreeMatchesFixture regenerates the non-trivial-topology
// golden job — the 32-rank fat-tree point whose cross-rack records carry
// spine hop latency and whose world dispatches under spine resource
// footprints — and requires byte-identity with the committed fixture at
// dispatch widths 1/2/4/8. Regenerate with
// `go run ./cmd/repro -trace-out internal/experiments/testdata/golden-fattree.trace
// -trace-job fattree` when the schedule intentionally changes.
func TestGoldenTraceFatTreeMatchesFixture(t *testing.T) {
	fixture, err := os.ReadFile("testdata/golden-fattree.trace")
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	for _, width := range []string{"1", "2", "4", "8"} {
		t.Setenv("CMPI_SIM_WORKERS", width)
		var buf bytes.Buffer
		if err := GoldenTraceFatTree(&buf); err != nil {
			t.Fatalf("width %s: GoldenTraceFatTree: %v", width, err)
		}
		if !bytes.Equal(buf.Bytes(), fixture) {
			t.Errorf("width %s: trace bytes diverge from testdata/golden-fattree.trace", width)
		}
	}
}

// TestGoldenTraceFatTreeReplays sanity-checks the fat-tree fixture: clean
// replay and cross-rack HCA traffic actually present.
func TestGoldenTraceFatTreeReplays(t *testing.T) {
	fixture, err := os.ReadFile("testdata/golden-fattree.trace")
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	tr, err := trace.Read(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	s := trace.Replay(tr)
	if s.Anomalies != 0 || s.UnmatchedSends != 0 {
		t.Fatalf("fixture replay: %d anomalies, %d unmatched sends", s.Anomalies, s.UnmatchedSends)
	}
	if total := s.Total(); total.Ops[core.ChannelHCA] == 0 {
		t.Error("fat-tree golden job carries no HCA traffic")
	}
}
