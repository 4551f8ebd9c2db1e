// Package invariant is the one harness behind the tests that say "the same
// run": a program must simulate the same thing traced or not, with the
// poolStrict checks on, on an emptied buffer depot and, for tables, at every
// sweep width. Check runs it at a base point and at
// each point the caller lists, and compares digests plus, where both points
// record, the trace bytes. It imports nothing above core, so the tests of mpi
// and of everything built on it can share it.
package invariant

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/trace"
)

// Point is the host configuration of one run. Zero Sweep is 4.
type Point struct {
	Sweep      int  // experiment sweep workers; a table's run applies it with experiments.SetWorkers
	Record     bool // the program records a trace and returns its bytes
	PoolStrict bool // core.SetPoolStrict: the depot poisoned, every drain checked
	DropDepot  bool // the run starts on an empty depot
}

// Result is what one run simulated: a digest (World.Digest, or Sum over what
// the program returns) and, where the point records, the trace bytes.
type Result struct {
	Digest string
	Trace  []byte
}

// Run is a program the harness runs at one point.
type Run func(*testing.T, Point) Result

// Check runs run at base and at each of points, reports each point whose
// result differs from the base's, and returns the base's result.
func Check(t *testing.T, run Run, base Point, points ...Point) Result {
	t.Helper()
	want := At(t, run, base)
	for _, p := range points {
		got := At(t, run, p)
		if got.Digest != want.Digest {
			t.Errorf("%+v: digest %s, want %s as at the base %+v", p, got.Digest, want.Digest, base)
		}
		if p.Record && base.Record && !bytes.Equal(got.Trace, want.Trace) {
			a, errA := trace.Read(bytes.NewReader(want.Trace))
			b, errB := trace.Read(bytes.NewReader(got.Trace))
			detail := fmt.Sprint("unreadable: ", errA, errB)
			if errA == nil && errB == nil {
				detail = trace.Diff(a, b)
			}
			t.Errorf("%+v: trace differs from the base's: %s", p, detail)
		}
	}
	return want
}

// At runs run at one point.
func At(t *testing.T, run Run, p Point) Result {
	t.Helper()
	p.Sweep = cmp.Or(p.Sweep, 4)
	if p.DropDepot {
		core.DropDepot()
	}
	defer core.SetPoolStrict(core.SetPoolStrict(p.PoolStrict))
	r := run(t, p)
	if p.Record && len(r.Trace) == 0 {
		t.Fatalf("%+v: no trace recorded", p)
	}
	return r
}

// Sum is the hex SHA-256 of the values' default formatting, one per line: a
// digest for what a program returns besides its worlds.
func Sum(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintln(h, v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SumBytes is the hex SHA-256 of b, the form trace pins take.
func SumBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
