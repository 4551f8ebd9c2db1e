package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesQuickTables holds EXPERIMENTS.md to the tables it
// documents: the markdown table under each listed heading must be the Quick
// table's header and rows, cell for cell.
func TestExperimentsDocMatchesQuickTables(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ id, heading string }{
		{"fig1", "## Figure 1 —"},
		{"fig3a", "## Figure 3(a) —"},
		{"fig11", "## Figure 11 —"},
		{"fig12", "## Figure 12 —"},
	} {
		t.Run(tc.id, func(t *testing.T) {
			rows := docTable(string(doc), tc.heading)
			if rows == nil {
				t.Fatalf("EXPERIMENTS.md has no table under %q", tc.heading)
			}
			tbl := baseTable(t, tc.id)
			want := append([][]string{tbl.Columns}, tbl.Rows...)
			for i := range max(len(rows), len(want)) {
				switch {
				case i >= len(rows):
					t.Errorf("EXPERIMENTS.md lacks row %q", strings.Join(want[i], " | "))
				case i >= len(want):
					t.Errorf("EXPERIMENTS.md has extra row %q", strings.Join(rows[i], " | "))
				case !slices.Equal(rows[i], want[i]):
					t.Errorf("EXPERIMENTS.md row %q, repro prints %q", strings.Join(rows[i], " | "), strings.Join(want[i], " | "))
				}
			}
		})
	}
}

// docTable returns the cells of the first markdown table after the line
// starting with heading — its header row and data rows, without the
// separator — or nil when there is none before the next heading.
func docTable(doc, heading string) [][]string {
	var rows [][]string
	in := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, heading):
			in = true
		case !in:
		case strings.HasPrefix(line, "|"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			if !strings.HasPrefix(cells[0], "---") {
				rows = append(rows, cells)
			}
		case rows != nil || strings.HasPrefix(line, "#"):
			return rows
		}
	}
	return rows
}
