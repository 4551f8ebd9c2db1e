package mpi

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/ib"
	"cmpi/internal/invariant"
	"cmpi/internal/sim"
	"cmpi/internal/trace"
)

// machTestTopo is a 2-rack fat tree: 4 hosts in racks of two behind one
// spine stage, small enough for -race yet exercising cross-rack HCA paths.
var machTestTopo = ib.Topology{RackSize: 2, SpineStages: 1, SpinesPerStage: 2, HopLatency: 150 * sim.Nanosecond}

// machWorld builds an n-rank world for the machine-equivalence tests with a
// trace recorded.
func machWorld(t *testing.T, n int, topo ib.Topology) (*World, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	opts := DefaultOptions()
	opts.Record = trace.NewRecorder(&buf)
	return machine(n, topo)(t, opts), &buf
}

// machine builds n-rank worlds for harness rows on topology topo.
func machine(n int, topo ib.Topology) func(*testing.T, Options) *World {
	return func(t *testing.T, opts Options) *World {
		t.Helper()
		opts.Topology = topo
		w, err := NewWorld(scaleDeployment(t, n), opts)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
}

// allreduceProgram runs AllreduceProgram on machine bodies.
func allreduceProgram(iters, bytes int) func(*World) error {
	return func(w *World) error { return w.RunMachine(AllreduceProgram(iters, bytes)) }
}

// TestMachineRendezvousRecvRegroups is the regression for the machine-rank
// panic on rendezvous receives: at 256 KiB Rabenseifner's halving exchanges
// ride CMA and HCA rendezvous, and a machine rank matches an RTS mid-sweep,
// where its step must start the transfer without blocking. (The name is from
// when such a match could also have to regroup epoch groups first.)
func TestMachineRendezvousRecvRegroups(t *testing.T) {
	opts := DefaultOptions()
	opts.Tunables.AllreduceAlgo = core.AllreduceRabenseifner
	res := invariant.At(t, row(machine(machRanks, ib.Topology{}), opts, allreduceProgram(1, 256<<10), nil),
		invariant.Point{Record: true})
	tr, err := trace.Read(bytes.NewReader(res.Trace))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []core.Path{core.PathCMARndv, core.PathHCARndv} {
		if !slices.ContainsFunc(tr.Records, func(r trace.Record) bool { return r.Path == trace.PathOf(path) }) {
			t.Fatalf("trace has no %v record; the exchanges no longer reach both rendezvous channels", path)
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

// TestMachineBodiesEngineAndWidthInvariant is the invariance gate of machine
// rank bodies (the name predates the removal of the engine switch and of the
// dispatch width): a 64-rank allreduce with machine-native rank bodies must
// record a byte-identical trace when run again on the depot the first run
// filled, and simulate the same thing untraced, on the trivial topology and
// on a 2-rack fat tree.
func TestMachineBodiesEngineAndWidthInvariant(t *testing.T) {
	for _, tc := range machTopos {
		t.Run(tc.name, func(t *testing.T) {
			rec := invariant.Point{Record: true}
			invariant.Check(t, row(machine(machRanks, tc.topo), DefaultOptions(), allreduceProgram(machIters, machBytes), nil),
				rec, rec, invariant.Point{})
		})
	}
}

// perRankOps projects a recorded trace onto its records with the timestamps
// stripped, sorted: the multiset of protocol actions the ranks performed (op
// kind, rank, peer, tag, context, bytes, path, sequence).
func perRankOps(trace []byte) []string {
	lines := strings.Split(strings.TrimRight(string(trace), "\n"), "\n")
	for i, l := range lines[1:] {
		_, lines[i+1], _ = strings.Cut(l, " ")
	}
	sort.Strings(lines)
	return lines
}

// TestMachineBodiesMatchBlockingOps pins machine-vs-blocking fidelity at the
// protocol level: every rank performs exactly the same ops (same paths, same
// tags, same algorithm choices, same byte counts) as the blocking goroutine
// body running the identical workload. Record-for-record byte identity is
// deliberately NOT asserted across body kinds: a machine executes its
// post-Advance continuation within one dispatch turn (a machine's Advance
// is a pure clock bump), so completion interleavings — and with them contended
// HCA timings — can shift slightly; see docs/PERFORMANCE.md.
func TestMachineBodiesMatchBlockingOps(t *testing.T) {
	for _, tc := range machTopos {
		t.Run(tc.name, func(t *testing.T) {
			wb, bufB := machWorld(t, machRanks, tc.topo)
			if err := wb.Run(AllreduceWorkload(machIters, machBytes)); err != nil {
				t.Fatalf("blocking: %v", err)
			}
			wm, bufM := machWorld(t, machRanks, tc.topo)
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
