package experiments

import (
	"bytes"
	"io"
	"os"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/invariant"
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

// golden is the harness row of a golden trace job: its recorded trace.
func golden(job func(io.Writer) error) invariant.Run {
	return func(t *testing.T, p invariant.Point) invariant.Result {
		t.Helper()
		var buf bytes.Buffer
		if err := job(&buf); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		return invariant.Result{Trace: buf.Bytes()}
	}
}

// checkGolden re-records a golden job and requires byte-identity with its
// committed fixture.
func checkGolden(t *testing.T, job func(io.Writer) error, fixture string) {
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	res := invariant.At(t, golden(job), invariant.Point{Record: true})
	if !bytes.Equal(res.Trace, want) {
		t.Errorf("trace bytes diverge from %s", fixture)
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
// spine hop latency — and requires byte-identity with the committed fixture.
// Regenerate with
// `go run ./cmd/repro -trace-out internal/experiments/testdata/golden-fattree.trace
// -trace-job fattree` when the schedule intentionally changes.
func TestGoldenTraceFatTreeMatchesFixture(t *testing.T) {
	checkGolden(t, GoldenTraceFatTree, "testdata/golden-fattree.trace")
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
