package experiments

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.txt from the Quick tables this build renders")

// quickFixture is every Quick table as `repro -fig all -j 1` prints it,
// without the "generated in" lines.
const quickFixture = "testdata/quick.txt"

// TestQuickTablesMatchFixture holds every Quick table to the fixture. A
// change that moves a table on purpose rewrites it (go test -run
// QuickTablesMatchFixture ./internal/experiments/ -update), and the fixture's
// diff lists the moved lines.
func TestQuickTablesMatchFixture(t *testing.T) {
	var got bytes.Buffer
	for _, e := range All() {
		baseTable(t, e.ID).Render(&got)
		got.WriteByte('\n')
	}
	if *update {
		if err := os.WriteFile(quickFixture, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickFixture)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	a, b := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	shown := 0
	for i := range max(len(a), len(b)) {
		var was, now string
		if i < len(a) {
			was = a[i]
		}
		if i < len(b) {
			now = b[i]
		}
		if was == now {
			continue
		}
		if shown++; shown > 20 {
			t.Errorf("... and more; rerun with -update and read the fixture's diff")
			break
		}
		t.Errorf("%s:%d\n  fixture: %q\n  now:     %q", quickFixture, i+1, was, now)
	}
}
