package graph500

import (
	"bytes"
	"fmt"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/invariant"
	"cmpi/internal/mpi"
	"cmpi/internal/trace"
)

// pinnedWorld builds the pinned runs' world: 8 ranks on two hosts, two
// containers each, so every channel carries part of the traffic.
func pinnedWorld(t *testing.T, mode core.Mode, rec *trace.Recorder) *mpi.World {
	t.Helper()
	spec := cluster.Spec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), 2, 8, cluster.PaperScenarioOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := mpi.DefaultOptions()
	opts.Mode, opts.Record = mode, rec
	w, err := mpi.NewWorld(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// The message schedule of Graph 500 (scale 10, two validated roots), pinned
// before its buffers moved onto the rank's pool: the SHA-256 of the recorded
// trace and of the result. World.Digest is not pinned: it counts the pool's
// requests, which moving a buffer onto AllocMem changes and no virtual time
// sees. Re-pinned once when the engine went back to one dispatch queue, which
// runs every event in strict time order.
func TestAppDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mode      core.Mode
		trace, re string
	}{
		{"stock", core.ModeDefault,
			"4be7f2586324444049b5829fe25a520f0436c17ea3d8fbc3a91bda058057e1dc",
			"73627fb3b0ab0271adea526846a47d1dfebf47e06eb19fa2b0ed586bc1fb9034"},
		{"opt", core.ModeLocalityAware,
			"ff185983ab25b56ec9b11bf396563d48f0277c949679b413d90d658bc4a32b08",
			"5e4934a54b89b3830245312cfb16e339514294cb728ed4e3ee8376acf903ec99"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res Result
			run := func(t *testing.T, _ invariant.Point) invariant.Result {
				var stream bytes.Buffer
				rec := trace.NewRecorder(&stream)
				w := pinnedWorld(t, tc.mode, rec)
				var err error
				if res, err = Run(w, smallParams()); err != nil {
					t.Fatal(err)
				}
				if err := rec.Err(); err != nil {
					t.Fatal(err)
				}
				return invariant.Result{Trace: stream.Bytes()}
			}
			got := invariant.At(t, run, invariant.Point{Record: true})
			if sum := invariant.SumBytes(got.Trace); sum != tc.trace {
				t.Errorf("trace digest %s (%d bytes), want %s", sum, len(got.Trace), tc.trace)
			}
			if sum := invariant.Sum(fmt.Sprintf("%#v", res)); sum != tc.re {
				t.Errorf("result digest %s (%+v), want %s", sum, res, tc.re)
			}
		})
	}
}
