package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"cmpi/internal/invariant"
)

// quickTables memoizes Quick tables by experiment and harness point, so the
// shape tests and the width and sweep determinism tests share their base runs.
var quickTables = map[string]*Table{}

// quickTable runs experiment id at Quick scale, once per id and point.
func quickTable(t *testing.T, id string, p invariant.Point) *Table {
	t.Helper()
	key := fmt.Sprint(id, p)
	if tbl, ok := quickTables[key]; ok {
		return tbl
	}
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	defer SetWorkers(0)
	SetWorkers(p.Sweep)
	tbl, err := e.Run(Quick)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	quickTables[key] = tbl
	return tbl
}

// baseTable is experiment id's Quick table at the harness's base point.
func baseTable(t *testing.T, id string) *Table {
	t.Helper()
	var tbl *Table
	invariant.At(t, func(t *testing.T, p invariant.Point) invariant.Result {
		tbl = quickTable(t, id, p)
		return invariant.Result{}
	}, invariant.Point{})
	return tbl
}

// table is the harness row of one experiment: its Quick table's text and CSV
// renderings, digested.
func table(id string) invariant.Run {
	return func(t *testing.T, p invariant.Point) invariant.Result {
		tbl := quickTable(t, id, p)
		var txt, csv bytes.Buffer
		tbl.Render(&txt)
		tbl.RenderCSV(&csv)
		return invariant.Result{Digest: invariant.Sum(txt.String(), csv.String())}
	}
}

// TestParallelSweepIsDeterministic locks in the tentpole invariant: running
// the sweep on one worker and on several must render byte-identical tables.
// Under -race this also shakes out cross-world data races in the worker pool.
func TestParallelSweepIsDeterministic(t *testing.T) {
	for _, id := range []string{"fig3bc", "fig11", "ext-faults"} {
		t.Run(id, func(t *testing.T) { invariant.Check(t, table(id), invariant.Point{}, invariant.Point{Sweep: 1}) })
	}
}

// TestWorkersOverride checks the explicit override wins and resets cleanly.
func TestWorkersOverride(t *testing.T) {
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d after reset; want >= 1", got)
	}
	SetWorkers(2)
	defer SetWorkers(0)
	if got := Workers(); got != 2 {
		t.Fatalf("Workers() = %d after SetWorkers(2)", got)
	}
}
