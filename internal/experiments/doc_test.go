package experiments

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesQuickTables holds EXPERIMENTS.md to the tables it
// documents at Quick scale: the markdown table under each listed heading
// must be what want makes of the Quick table, cell for cell. Most print the
// table's header and rows as they are.
func TestExperimentsDocMatchesQuickTables(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id, heading string
		want        func(t *testing.T, tbl *Table) [][]string
	}{
		{"fig1", "## Figure 1 —", asPrinted},
		{"fig3a", "## Figure 3(a) —", asPrinted},
		{"tableI", "## Table I —", withThousands},
		{"fig10", "## Figure 10 —", fig10Summary},
		{"fig11", "## Figure 11 —", asPrinted},
		{"fig12", "## Figure 12 —", asPrinted},
		{"ext-mltrain", "## Extension: ML training traffic", withoutUnits},
	} {
		t.Run(tc.id, func(t *testing.T) {
			rows := docTable(string(doc), tc.heading)
			if rows == nil {
				t.Fatalf("EXPERIMENTS.md has no table under %q", tc.heading)
			}
			want := tc.want(t, baseTable(t, tc.id))
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

// asPrinted is a table's header and rows.
func asPrinted(_ *testing.T, tbl *Table) [][]string {
	return append([][]string{tbl.Columns}, tbl.Rows...)
}

// withThousands is asPrinted with every count grouped by thousands (7,749).
func withThousands(t *testing.T, tbl *Table) [][]string {
	out := [][]string{tbl.Columns}
	for _, row := range tbl.Rows {
		cells := slices.Clone(row)
		for i, c := range cells {
			if _, err := strconv.Atoi(c); err == nil {
				for j := len(c) - 3; j > 0; j -= 3 {
					c = c[:j] + "," + c[j:]
				}
				cells[i] = c
			}
		}
		out = append(out, cells)
	}
	return out
}

// withoutUnits is asPrinted with the " (us)" of the header cells left out:
// the doc names the unit once, above the table.
func withoutUnits(t *testing.T, tbl *Table) [][]string {
	head := slices.Clone(tbl.Columns)
	for i, c := range head {
		head[i] = strings.TrimSuffix(c, " (us)")
	}
	return append([][]string{head}, tbl.Rows...)
}

// fig10Summary is the doc's digest of Fig. 10, one row per collective: its
// best improvement, followed by the smallest size's when that is not the
// best, and the size at which proposed is furthest over native.
func fig10Summary(t *testing.T, tbl *Table) [][]string {
	size := func(b string) string {
		n := int(cell(t, b))
		if n >= 1024 {
			return strconv.Itoa(n/1024) + " KiB"
		}
		return b + " B"
	}
	out := [][]string{{"collective", "best measured improvement", "overhead vs native (worst)"}}
	for start := 0; start < len(tbl.Rows); {
		coll := tbl.Rows[start][0]
		end := start
		for end < len(tbl.Rows) && tbl.Rows[end][0] == coll {
			end++
		}
		group := tbl.Rows[start:end]
		best, worst := 0, 0
		for i, row := range group {
			if cell(t, row[5]) > cell(t, group[best][5]) {
				best = i
			}
			if cell(t, row[3])/cell(t, row[4]) > cell(t, group[worst][3])/cell(t, group[worst][4]) {
				worst = i
			}
		}
		imp := group[best][5] + " @ " + size(group[best][1])
		if best != 0 {
			imp += " (" + group[0][5] + " @ " + size(group[0][1]) + ")"
		}
		over := cell(t, group[worst][3])/cell(t, group[worst][4]) - 1
		out = append(out, []string{coll, imp, fmt.Sprintf("%.0f%% @ %s", 100*over, size(group[worst][1]))})
		start = end
	}
	return out
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
