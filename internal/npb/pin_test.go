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
// Re-pinned once when the engine went back to one dispatch queue, which runs
// every event in strict time order.
func TestAppDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		kernel    string
		mode      core.Mode
		trace, re string
	}{
		{"CG", core.ModeDefault,
			"25756671afaeec2591080e570d4a8a45ba3df1c31fe915e1e80976ea5fdbe2ce",
			"32dd6adf907c458a6b8b1aeced3fcb7d795053b190520731813ea144a99fd6d6"},
		{"CG", core.ModeLocalityAware,
			"1a5db5475844b9df78ea16d3e6fe120da194850f5390d112b52a3165adce62e8",
			"12d1b153d2562e057eefc21a6794afe1ccf9659bfc17dce8957aaa82b53d37a3"},
		{"EP", core.ModeDefault,
			"07d5876982fa4580fb303308bfef7d2adb75dad6e39035b23491b4430e11339a",
			"db3464bebb8af9553acf06a22b3004ccd2f71ab9eb47e7b036a742fe24a7348a"},
		{"EP", core.ModeLocalityAware,
			"d61a453969c0f12c267d746fa677cf9960d2e16c1d8941f207f2323784669af1",
			"714add26b89fba059005660b4819934e4bc57697bc20907a8adf6754dd9a09c6"},
		{"FT", core.ModeDefault,
			"34de88edf2bd60344ae95552776c13d49cb9056a9eff07f494a3684b36b43993",
			"9870e47c25a158467d1fd64abac960186bd0c020015e35682cf280456e8a1d52"},
		{"FT", core.ModeLocalityAware,
			"2b5f41151aa4e70f39c760f6e764e23a8f30521aa3256ecc3958c114a528388e",
			"6cdc723741f163f6c10f53e25d578a237eff664c76a9c0fdb3acef927462905b"},
		{"IS", core.ModeDefault,
			"182fc4f0ca87588007e64866103ccef61e27a376d58be7675035307376950c3b",
			"3f2cffbff075bb66a93246f08b00f54d47527e355f9f1b6b35c360089604df2f"},
		{"IS", core.ModeLocalityAware,
			"84bd1cbd0a01379dfb928634390e448c809d78e015896a175a0703b2bf76e341",
			"e3c80face68fd66550522345f1f34c6381442597dfbf57ea7e66be5b6e2f709e"},
		{"MG", core.ModeDefault,
			"342fbd9edd2cc0844bdff081f4866315ef676b3ca0991da54d1f9932eb23db5f",
			"7d9dc5fcd78912143c6a48f6ebf46ccd21ffad71a1c9d54ba2b9729f36dc682a"},
		{"MG", core.ModeLocalityAware,
			"40388feba78f25db7a03c06f9ca4e17fd5550966bbd067241c6a4ffe01353049",
			"0e9135f19913e01dc807bba124a9021a46caae0a8f7cc4f5548ddf73f6f458e8"},
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
