package mpi_test

import (
	"bytes"
	"io"
	"os"
	"testing"

	"cmpi/internal/experiments"
	"cmpi/internal/mpi"
)

// TestPoolStrictKeepsGoldenTracesAndChaosHunts runs the jobs that
// internal/experiments owns with poolStrict on — every depot buffer poisoned,
// the conservation law asserted at the end of every clean world — and wants
// what it wants with the hook off: both golden traces byte-identical to their
// fixtures, and three chaos hunts (crashed, respawned and shrunk worlds, one
// after another on a warm depot) printing the same report.
func TestPoolStrictKeepsGoldenTracesAndChaosHunts(t *testing.T) {
	hunts := map[int64]string{}
	for _, seed := range []int64{7, 42, 1337} {
		var out bytes.Buffer
		if err := experiments.Chaos(seed, experiments.Quick, &out); err != nil {
			t.Fatalf("chaos seed %d: %v", seed, err)
		}
		hunts[seed] = out.String()
	}

	was := mpi.SetPoolStrict(true)
	t.Cleanup(func() { mpi.SetPoolStrict(was) })
	for _, job := range []struct {
		fixture string
		run     func(io.Writer) error
	}{
		{"golden.trace", experiments.GoldenTrace},
		{"golden-fattree.trace", experiments.GoldenTraceFatTree},
	} {
		want, err := os.ReadFile("../experiments/testdata/" + job.fixture)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := job.run(&got); err != nil {
			t.Fatalf("%s: %v", job.fixture, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: trace differs from the fixture under poolStrict", job.fixture)
		}
	}
	for seed, want := range hunts {
		var out bytes.Buffer
		if err := experiments.Chaos(seed, experiments.Quick, &out); err != nil {
			t.Fatalf("chaos seed %d under poolStrict: %v", seed, err)
		}
		if out.String() != want {
			t.Errorf("chaos seed %d under poolStrict:\n%s\nwant:\n%s", seed, out.String(), want)
		}
	}
}
