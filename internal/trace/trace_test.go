package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"cmpi/internal/core"
)

// sample builds a small but representative trace: eager and rendezvous
// messages, a fallback, RMA accesses, and fault events.
func sample() *Trace {
	return &Trace{
		Ranks: 4,
		Cell:  8192,
		Records: []Record{
			{T: 100, Op: OpSend, Path: PathOf(core.PathSHMEager), Rank: 0, Peer: 1, Tag: 7, Ctx: 0, Bytes: 64, Aux: 0},
			{T: 220, Op: OpRecv, Path: PathOf(core.PathSHMEager), Rank: 1, Peer: 0, Tag: 7, Ctx: 0, Bytes: 64, Aux: 0},
			{T: 300, Op: OpSsend, Path: PathOf(core.PathCMARndv), Rank: 2, Peer: 3, Tag: 1, Ctx: 0, Bytes: 1 << 20, Aux: 0},
			{T: 310, Op: OpRTS, Path: PathOf(core.PathCMARndv), Rank: 2, Peer: 3, Tag: 1, Ctx: 0, Bytes: 1 << 20, Aux: 0},
			{T: 900, Op: OpRecv, Path: PathOf(core.PathCMARndv), Rank: 3, Peer: 2, Tag: 1, Ctx: 0, Bytes: 1 << 20, Aux: 0},
			{T: 1000, Op: OpSend, Path: PathOf(core.PathHCAEager), Rank: 0, Peer: 3, Tag: 2, Ctx: 0, Bytes: 128, Aux: 0},
			{T: 1400, Op: OpRecv, Path: PathOf(core.PathHCAEager), Rank: 3, Peer: 0, Tag: 2, Ctx: 0, Bytes: 128, Aux: 0},
			{T: 1500, Op: OpRMAPut, Path: ChanHCA, Rank: 1, Peer: 2, Bytes: 4096},
			{T: 1600, Op: OpRetransmit, Path: PathNone, Rank: -1, Peer: 0, Aux: 2},
			{T: 1700, Op: OpQPBreak, Path: PathNone, Rank: -1, Peer: 1, Aux: 8},
			{T: 1800, Op: OpAttachFail, Path: PathNone, Rank: -1, Peer: 0},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if d := Diff(tr, got); d != "" {
		t.Fatalf("round-trip diverged:\n%s", d)
	}
	// The encoding is canonical: re-encoding the parsed trace must reproduce
	// the bytes exactly.
	var buf2 bytes.Buffer
	if err := got.Write(&buf2); err != nil {
		t.Fatalf("re-Write: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-encoding is not byte-identical")
	}
}

func TestRecorderStreamsSameBytesAsWrite(t *testing.T) {
	tr := sample()
	var streamed bytes.Buffer
	rec := NewRecorder(&streamed)
	rec.Begin(tr.Ranks, tr.Cell)
	for _, r := range tr.Records {
		rec.Add(r)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("Recorder: %v", err)
	}
	var whole bytes.Buffer
	if err := tr.Write(&whole); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.Equal(streamed.Bytes(), whole.Bytes()) {
		t.Fatalf("streamed encoding differs from batch encoding")
	}
	if d := Diff(rec.Trace(), tr); d != "" {
		t.Fatalf("retained trace diverged:\n%s", d)
	}
}

func TestRecorderRejectsReuse(t *testing.T) {
	rec := NewRecorder(nil)
	rec.Begin(2, 8192)
	rec.Begin(2, 8192)
	if rec.Err() == nil {
		t.Fatal("second Begin must fail: a Recorder is single-shot")
	}
}

func TestDiffFindsFirstDivergence(t *testing.T) {
	a, b := sample(), sample()
	if d := Diff(a, b); d != "" {
		t.Fatalf("identical traces diff: %s", d)
	}
	b.Records[3].Bytes++
	d := Diff(a, b)
	if !strings.Contains(d, "record 3") {
		t.Fatalf("Diff = %q, want first divergence at record 3", d)
	}
	b = sample()
	b.Records = b.Records[:5]
	if d := Diff(a, b); !strings.Contains(d, "record count differs") {
		t.Fatalf("Diff = %q, want record-count mismatch", d)
	}
	b = sample()
	b.Ranks = 8
	if d := Diff(a, b); !strings.Contains(d, "header differs") {
		t.Fatalf("Diff = %q, want header mismatch", d)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"empty":      "",
		"bad-magic":  "not-a-trace v1 ranks=2 cell=8192\n",
		"no-ranks":   "cmpi-trace v1 cell=8192\n",
		"bad-op":     "cmpi-trace v1 ranks=2 cell=8192\n100 warp 0 1 0 0 64 shm-eager 0\n",
		"bad-path":   "cmpi-trace v1 ranks=2 cell=8192\n100 send 0 1 0 0 64 warp-drive 0\n",
		"few-fields": "cmpi-trace v1 ranks=2 cell=8192\n100 send 0 1\n",
		"huge-ranks": "cmpi-trace v1 ranks=1099511627776 cell=1", // Replay once sized a table by it
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted malformed input", name)
		}
	}
}

// FuzzTraceRead: a trace file is bytes from outside. Read returns an error,
// or a trace that Replay summarizes and whose encoding reads back to itself.
func FuzzTraceRead(f *testing.F) {
	var buf bytes.Buffer
	sample().Write(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte("cmpi-trace v1 ranks=1099511627776 cell=1"))
	f.Add([]byte("cmpi-trace v1 ranks=2 cell=8\n5 send 0 1 2 0 -9 shm-eager 0\n6 recv 1 0 2 0 -9 shm-eager 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		Replay(tr).Render(io.Discard)
		var enc bytes.Buffer
		if err := tr.Write(&enc); err != nil {
			t.Fatal(err)
		}
		again, err := Read(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("the encoding of an accepted trace does not read: %v", err)
		}
		if d := Diff(tr, again); d != "" {
			t.Fatalf("Write∘Read is not the identity: %s", d)
		}
	})
}

func TestReplayCreditRules(t *testing.T) {
	cell := 8192
	tr := &Trace{
		Ranks: 4,
		Cell:  cell,
		Records: []Record{
			// SHM eager, 64 B: 1 fragment on the sender.
			{T: 10, Op: OpSend, Path: PathOf(core.PathSHMEager), Rank: 0, Peer: 1, Tag: 1, Bytes: 64, Aux: 0},
			{T: 20, Op: OpRecv, Path: PathOf(core.PathSHMEager), Rank: 1, Peer: 0, Tag: 1, Bytes: 64, Aux: 0},
			// SHM eager, zero size: still one first packet.
			{T: 30, Op: OpSend, Path: PathOf(core.PathSHMEager), Rank: 0, Peer: 1, Tag: 2, Bytes: 0, Aux: 1},
			{T: 40, Op: OpRecv, Path: PathOf(core.PathSHMEager), Rank: 1, Peer: 0, Tag: 2, Bytes: 0, Aux: 1},
			// SHM rendezvous streaming, 2.5 cells: 3 fragments on the sender.
			{T: 50, Op: OpSend, Path: PathOf(core.PathSHMRndv), Rank: 0, Peer: 1, Tag: 3, Bytes: 2*cell + cell/2, Aux: 2},
			{T: 60, Op: OpRTS, Path: PathOf(core.PathSHMRndv), Rank: 0, Peer: 1, Tag: 3, Bytes: 2*cell + cell/2, Aux: 2},
			{T: 70, Op: OpCTS, Path: PathOf(core.PathSHMRndv), Rank: 1, Peer: 0, Tag: 3, Bytes: 2*cell + cell/2, Aux: 2},
			{T: 90, Op: OpRecv, Path: PathOf(core.PathSHMRndv), Rank: 1, Peer: 0, Tag: 3, Bytes: 2*cell + cell/2, Aux: 2},
			// CMA rendezvous: the single copy lands on the RECEIVER.
			{T: 100, Op: OpSend, Path: PathOf(core.PathCMARndv), Rank: 2, Peer: 3, Tag: 4, Bytes: 100000, Aux: 0},
			{T: 130, Op: OpRecv, Path: PathOf(core.PathCMARndv), Rank: 3, Peer: 2, Tag: 4, Bytes: 100000, Aux: 0},
			// HCA eager: one work request on the sender.
			{T: 140, Op: OpSend, Path: PathOf(core.PathHCAEager), Rank: 0, Peer: 3, Tag: 5, Bytes: 256, Aux: 0},
			{T: 180, Op: OpRecv, Path: PathOf(core.PathHCAEager), Rank: 3, Peer: 0, Tag: 5, Bytes: 256, Aux: 0},
			// Self delivery: one SHM op.
			{T: 190, Op: OpSend, Path: PathSelf, Rank: 2, Peer: 2, Tag: 6, Bytes: 999, Aux: 0},
			{T: 191, Op: OpRecv, Path: PathOf(core.PathSHMEager), Rank: 2, Peer: 2, Tag: 6, Bytes: 999, Aux: 0},
			// SHM-eager send rerouted to the HCA: the fallback record cancels
			// the phantom SHM credit and books 1 HCA op instead.
			{T: 200, Op: OpSend, Path: PathOf(core.PathSHMEager), Rank: 1, Peer: 2, Tag: 7, Bytes: 64, Aux: 0},
			{T: 201, Op: OpShmFallback, Path: PathOf(core.PathSHMEager), Rank: 1, Peer: 2, Tag: 7, Bytes: 64, Aux: 0},
			{T: 260, Op: OpRecv, Path: PathOf(core.PathHCAEager), Rank: 2, Peer: 1, Tag: 7, Bytes: 64, Aux: 0},
			// CMA degraded to SHM streaming: sender (Peer) streams 2 cells.
			{T: 300, Op: OpSend, Path: PathOf(core.PathCMARndv), Rank: 3, Peer: 0, Tag: 8, Bytes: 2 * cell, Aux: 0},
			{T: 310, Op: OpRTS, Path: PathOf(core.PathCMARndv), Rank: 3, Peer: 0, Tag: 8, Bytes: 2 * cell, Aux: 0},
			{T: 320, Op: OpCMAFallback, Path: PathOf(core.PathCMARndv), Rank: 0, Peer: 3, Tag: 8, Bytes: 2 * cell, Aux: 0},
			{T: 350, Op: OpRecv, Path: PathOf(core.PathSHMRndv), Rank: 0, Peer: 3, Tag: 8, Bytes: 2 * cell, Aux: 0},
			// RMA put over SHM on rank 1.
			{T: 400, Op: OpRMAPut, Path: ChanSHM, Rank: 1, Peer: 3, Bytes: 512},
			// Faults.
			{T: 500, Op: OpRetransmit, Path: PathNone, Rank: -1, Peer: 0, Aux: 3},
			{T: 510, Op: OpQPBreak, Path: PathNone, Rank: -1, Peer: 1, Aux: 8},
			{T: 520, Op: OpAttachFail, Path: PathNone, Rank: -1, Peer: 0},
		},
	}
	s := Replay(tr)
	if s.Anomalies != 0 || s.UnmatchedSends != 0 {
		t.Fatalf("anomalies=%d unmatched=%d, want clean replay", s.Anomalies, s.UnmatchedSends)
	}

	type want struct {
		rank  int
		ch    core.Channel
		ops   uint64
		bytes uint64
	}
	for _, w := range []want{
		{0, core.ChannelSHM, 1 + 1 + 3, 64 + 0 + uint64(2*cell+cell/2)}, // eager + zero-eager + 3 rndv fragments
		{0, core.ChannelHCA, 1, 256},
		{1, core.ChannelSHM, 1, 512},              // RMA put (the fallback send's SHM credit was cancelled)
		{1, core.ChannelHCA, 1, 64},               // fallback reroute
		{2, core.ChannelSHM, 1, 999},              // self delivery
		{3, core.ChannelCMA, 1, 100000},           // CMA copy on the receiver
		{3, core.ChannelSHM, 2, uint64(2 * cell)}, // cma-fallback: sender streams 2 fragments
	} {
		c := s.PerRank[w.rank]
		if c.Ops[w.ch] != w.ops || c.Bytes[w.ch] != w.bytes {
			t.Errorf("rank %d ch %v: ops=%d bytes=%d, want ops=%d bytes=%d",
				w.rank, w.ch, c.Ops[w.ch], c.Bytes[w.ch], w.ops, w.bytes)
		}
	}
	if s.Rendezvous != 2 {
		t.Errorf("Rendezvous = %d, want 2 (one SHM RTS, one CMA RTS)", s.Rendezvous)
	}
	if s.ShmFallbacks != 1 || s.CMAFallbacks != 1 {
		t.Errorf("fallbacks = %d/%d, want 1/1", s.ShmFallbacks, s.CMAFallbacks)
	}
	if s.Retransmits != 3 || s.QPBreaks != 1 || s.AttachFails != 1 {
		t.Errorf("faults = %d/%d/%d, want 3/1/1", s.Retransmits, s.QPBreaks, s.AttachFails)
	}

	// Latency of the first eager message: recv at 20, send at 10.
	pe := s.PerPath[PathOf(core.PathSHMEager)]
	if pe.LatCount != 3 || pe.LatMin != 1 { // 64B (10), 0B (10), self (1)
		t.Errorf("shm-eager latency count=%d min=%v, want 3 matches min 1ps", pe.LatCount, pe.LatMin)
	}

	// Render must not panic and should mention the reconstructed tables.
	var sb strings.Builder
	s.Render(&sb)
	for _, frag := range []string{"per-rank channel operations", "per-path messages", "rendezvous handshakes"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("Render output missing %q", frag)
		}
	}
}

func TestReplayFlagsUnmatchedAndAnomalies(t *testing.T) {
	tr := &Trace{
		Ranks: 2,
		Cell:  8192,
		Records: []Record{
			{T: 10, Op: OpSend, Path: PathOf(core.PathSHMEager), Rank: 0, Peer: 1, Tag: 1, Bytes: 64, Aux: 0},
			// recv with no matching send (wrong seq)
			{T: 20, Op: OpRecv, Path: PathOf(core.PathSHMEager), Rank: 1, Peer: 0, Tag: 1, Bytes: 64, Aux: 9},
		},
	}
	s := Replay(tr)
	if s.UnmatchedSends != 1 {
		t.Errorf("UnmatchedSends = %d, want 1", s.UnmatchedSends)
	}
	if s.Anomalies != 1 {
		t.Errorf("Anomalies = %d, want 1", s.Anomalies)
	}
}
