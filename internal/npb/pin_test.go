package npb

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

// The message schedule of the five kernels (class S), pinned before their
// buffers moved onto the rank's pool: the SHA-256 of the recorded trace and
// of the result. World.Digest is not pinned: it counts the pool's requests,
// which moving a buffer onto AllocMem changes and no virtual time sees.
func TestAppDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		kernel    string
		mode      core.Mode
		trace, re string
	}{
		{"CG", core.ModeDefault,
			"18190479d2837e88f9086e22e581a2954107d29ae61ba2e930182b5d0ed6fe8b",
			"bf955e004fc0dba3adcb1dcd98c321586e64d534d405f7799a0e2338e8acde8c"},
		{"CG", core.ModeLocalityAware,
			"bfe23fc89ce837261683793d8c3bbd5218b7d354029541e92494f91d0fc7d7cb",
			"e16a8d272db38a9424b170f16dc1420fc0c1037e2bfc85b0e2afff3d2c7a8933"},
		{"EP", core.ModeDefault,
			"b9cdd61cc8ba2996b49fc9991637ca0376e23e103c93b1d8c72af614fef927af",
			"c4607bf057e0db7fd1737f4d015b46dfcd87261b149f99699184c5783191b544"},
		{"EP", core.ModeLocalityAware,
			"99b77581f4e99e0a4e727e5ede29b26dbce6fb419b48db4e0bc4e352959204fa",
			"a634e9fb87e8013392ed2d9729b9ceb26d7e836eafcab711b842ef0a9e98918b"},
		{"FT", core.ModeDefault,
			"34de88edf2bd60344ae95552776c13d49cb9056a9eff07f494a3684b36b43993",
			"9870e47c25a158467d1fd64abac960186bd0c020015e35682cf280456e8a1d52"},
		{"FT", core.ModeLocalityAware,
			"008ce6e41886c1b424dda6565db90d8731774cb581c644e888bfe1daebabcd9b",
			"5753fbedfc0077d0004460aaeb15c5ce18661e390192f22c09b9e02fd5979aba"},
		{"IS", core.ModeDefault,
			"182fc4f0ca87588007e64866103ccef61e27a376d58be7675035307376950c3b",
			"3f2cffbff075bb66a93246f08b00f54d47527e355f9f1b6b35c360089604df2f"},
		{"IS", core.ModeLocalityAware,
			"fed48f200041f5370f7a3a0843fb22c4ec839fe410f5113944380ddbf2af933f",
			"f00c5979684fe4bfb7bae011e77bd8b939a3cd0c7f3f6577fb28705007261949"},
		{"MG", core.ModeDefault,
			"8b78151223fcdc2e22111bea97708577fc17af0dcf5622ff25139cc16b05db4a",
			"308ed425ce3739dd82ff8a8bc568e00a4e03dca6cde3e55a286e166ac960073c"},
		{"MG", core.ModeLocalityAware,
			"8efe9c66f660999eee6e83e20b8dc72c5915fba12ff66a367764aa655601f71c",
			"ca28db2647736a84944c17b74fa3f29ce6c365789acc7fdc0e0847f694a111fa"},
	} {
		name := tc.kernel + ".stock"
		if tc.mode == core.ModeLocalityAware {
			name = tc.kernel + ".opt"
		}
		t.Run(name, func(t *testing.T) {
			var res Result
			run := func(t *testing.T, _ invariant.Point) invariant.Result {
				var stream bytes.Buffer
				rec := trace.NewRecorder(&stream)
				w := pinnedWorld(t, tc.mode, rec)
				var err error
				if res, err = Kernels()[tc.kernel](w, ClassS); err != nil {
					t.Fatal(err)
				}
				if !res.Verified {
					t.Fatalf("%s.S failed verification: %+v", tc.kernel, res)
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
				t.Errorf("result digest %s (%v), want %s", sum, res, tc.re)
			}
		})
	}
}
