package mpi

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/ib"
	"cmpi/internal/sim"
)

// machTestTopo is a 2-rack fat tree: 4 hosts in racks of two behind one
// spine stage, small enough for -race yet exercising cross-rack HCA paths
// and the spine-resource footprints.
var machTestTopo = ib.Topology{RackSize: 2, SpineStages: 1, SpinesPerStage: 2, HopLatency: 150 * sim.Nanosecond}

// machWorld builds an n-rank world for the machine-equivalence tests with a
// textual trace attached, pinning engine mode and dispatch width.
func machWorld(t *testing.T, n int, topo ib.Topology, flat bool, workers int) (*World, *bytes.Buffer) {
	t.Helper()
	return machWorldOpts(t, n, DefaultOptions(), topo, flat, workers)
}

// machWorldOpts is machWorld over caller-tuned options.
func machWorldOpts(t *testing.T, n int, opts Options, topo ib.Topology, flat bool, workers int) (*World, *bytes.Buffer) {
	t.Helper()
	d := scaleDeployment(t, n)
	opts.Topology = topo
	var buf bytes.Buffer
	opts.Trace = &buf
	w, err := NewWorld(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.Eng.SetFlat(flat)
	w.Eng.SetWorkers(workers)
	return w, &buf
}

// TestMachineRendezvousRecvRegroups is the regression for the flat-engine
// panic on rendezvous receives: at 256 KiB Rabenseifner's halving exchanges
// ride CMA and HCA rendezvous, and a receiver often matches an RTS in an
// epoch whose group does not own the (parked) sender, so the receive-side
// claim must regroup. A machine step cannot yield mid-sweep; the transfer is
// parked and waitStep regroups. Both engines must finish with byte-identical
// traces at every width.
func TestMachineRendezvousRecvRegroups(t *testing.T) {
	opts := DefaultOptions()
	opts.Tunables.AllreduceAlgo = core.AllreduceRabenseifner
	var ref []byte
	var refTime sim.Time
	for _, flat := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("flat=%v/w%d", flat, workers)
			w, buf := machWorldOpts(t, machRanks, opts, ib.Topology{}, flat, workers)
			if err := w.RunMachine(AllreduceProgram(1, 256<<10)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if w.Eng.Stats().RegroupYields == 0 {
				t.Fatalf("%s: no regroup yields; the world no longer exercises the claim path", name)
			}
			if ref == nil {
				ref, refTime = buf.Bytes(), w.MaxBodyTime()
				for _, ch := range []string{"path=cma-rndv", "path=hca-rndv"} {
					if !bytes.Contains(ref, []byte(ch)) {
						t.Fatalf("trace has no %q record; the exchanges no longer reach both rendezvous channels", ch)
					}
				}
				continue
			}
			if !bytes.Equal(ref, buf.Bytes()) || w.MaxBodyTime() != refTime {
				t.Errorf("%s: diverges from flat/w1 (trace %d vs %d bytes, time %v vs %v)",
					name, buf.Len(), len(ref), w.MaxBodyTime(), refTime)
			}
		}
	}
}

const (
	machRanks = 64
	machIters = 2
	machBytes = 1024
)

var machTopos = []struct {
	name string
	topo ib.Topology
}{
	{"trivial", ib.Topology{}},
	{"fattree", machTestTopo},
}

// TestMachineBodiesEngineAndWidthInvariant is the tentpole equivalence gate:
// a 64-rank allreduce with machine-native rank bodies must produce
// byte-identical traces on the flat and goroutine engines at dispatch widths
// 1/2/4/8 — the same machine code either steps flat or blocks for real on a
// goroutine, and worker count can never change simulated results — on the
// trivial topology and on a 2-rack fat tree.
func TestMachineBodiesEngineAndWidthInvariant(t *testing.T) {
	for _, tc := range machTopos {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			for _, flat := range []bool{true, false} {
				for _, workers := range []int{1, 2, 4, 8} {
					name := fmt.Sprintf("flat=%v/w%d", flat, workers)
					w, buf := machWorld(t, machRanks, tc.topo, flat, workers)
					if err := w.RunMachine(AllreduceProgram(machIters, machBytes)); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if ref == nil {
						ref = buf.Bytes()
						if len(ref) == 0 {
							t.Fatal("machine world produced an empty trace")
						}
						continue
					}
					if !bytes.Equal(ref, buf.Bytes()) {
						t.Errorf("%s: trace diverges from flat/w1 (%d vs %d bytes)",
							name, buf.Len(), len(ref))
					}
				}
			}
		})
	}
}

// perRankOps projects a textual trace onto per-rank op sequences with the
// timestamps stripped, sorted: the multiset of protocol actions each rank
// performed (op kind, peer, tag, context, bytes, path).
func perRankOps(trace []byte) []string {
	lines := strings.Split(strings.TrimRight(string(trace), "\n"), "\n")
	for i, l := range lines {
		if j := strings.IndexByte(l, ' '); j >= 0 && strings.HasPrefix(l, "t=") {
			lines[i] = l[j+1:]
		}
	}
	sort.Strings(lines)
	return lines
}

// TestMachineBodiesMatchBlockingOps pins machine-vs-blocking fidelity at the
// protocol level: every rank performs exactly the same ops (same paths, same
// tags, same algorithm choices, same byte counts) as the blocking goroutine
// body running the identical workload. Record-for-record byte identity is
// deliberately NOT asserted across body kinds: a machine executes its
// post-Advance continuation within one dispatch turn (flat-contract
// pure-bump Advance), so completion interleavings — and with them contended
// HCA timings — can shift slightly; see docs/PERFORMANCE.md.
func TestMachineBodiesMatchBlockingOps(t *testing.T) {
	for _, tc := range machTopos {
		t.Run(tc.name, func(t *testing.T) {
			wb, bufB := machWorld(t, machRanks, tc.topo, false, 1)
			if err := wb.Run(AllreduceWorkload(machIters, machBytes)); err != nil {
				t.Fatalf("blocking: %v", err)
			}
			wm, bufM := machWorld(t, machRanks, tc.topo, true, 1)
			if err := wm.RunMachine(AllreduceProgram(machIters, machBytes)); err != nil {
				t.Fatalf("machine: %v", err)
			}
			opsB, opsM := perRankOps(bufB.Bytes()), perRankOps(bufM.Bytes())
			if len(opsB) != len(opsM) {
				t.Fatalf("op counts differ: blocking %d, machine %d", len(opsB), len(opsM))
			}
			for i := range opsB {
				if opsB[i] != opsM[i] {
					t.Fatalf("op multiset diverges at %d: blocking %q, machine %q", i, opsB[i], opsM[i])
				}
			}
		})
	}
}

// TestFatTreeWorldDispatchesParallel pins the spine-footprint half of the
// tentpole: a racked fat-tree world no longer serializes — epoch dispatch
// batches groups (MaxBatchWidth > 1) — with byte-identical results at every
// width (TestMachineBodiesEngineAndWidthInvariant covers the identity).
func TestFatTreeWorldDispatchesParallel(t *testing.T) {
	w, _ := machWorld(t, machRanks, machTestTopo, true, 8)
	if err := w.RunMachine(AllreduceProgram(machIters, machBytes)); err != nil {
		t.Fatal(err)
	}
	if got := w.Eng.Stats().MaxBatchWidth; got <= 1 {
		t.Errorf("fat-tree world dispatched with MaxBatchWidth=%d; want > 1", got)
	}
}

// TestMachineBodiesMemoryAdvantage checks the accounted per-rank memory:
// flat machine bodies must beat goroutine-backed machine bodies (which pay
// the stack + g descriptor + channel-pair floor) by a wide margin, since
// that floor is the whole point of porting rank bodies to machines.
func TestMachineBodiesMemoryAdvantage(t *testing.T) {
	wf, _ := machWorld(t, machRanks, ib.Topology{}, true, 1)
	if err := wf.RunMachine(AllreduceProgram(1, machBytes)); err != nil {
		t.Fatal(err)
	}
	wg, _ := machWorld(t, machRanks, ib.Topology{}, false, 1)
	if err := wg.Run(AllreduceWorkload(1, machBytes)); err != nil {
		t.Fatal(err)
	}
	flatPeak := wf.Eng.Stats().PeakProcBytes
	goPeak := wg.Eng.Stats().PeakProcBytes
	if flatPeak == 0 || goPeak == 0 {
		t.Fatalf("missing peak accounting: flat=%d goroutine=%d", flatPeak, goPeak)
	}
	if ratio := float64(goPeak) / float64(flatPeak); ratio < 5 {
		t.Errorf("peak proc memory advantage %.2fx (goroutine %d B vs flat %d B); want >= 5x",
			ratio, goPeak, flatPeak)
	}
}
