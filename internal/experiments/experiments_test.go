package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a table cell back to a float.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestRegistryCoversAllArtifacts(t *testing.T) {
	want := []string{"fig1", "fig3a", "fig3bc", "tableI", "fig7a", "fig7b", "fig7c",
		"fig8", "fig9", "fig10", "fig11", "fig12", "ext-scaling", "ext-scale",
		"ext-faults", "ext-recovery", "ext-mltrain"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
	}
	if _, ok := ByID("fig8"); !ok {
		t.Error("ByID(fig8) missed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) hit")
	}
}

func TestFigure1Shape(t *testing.T) {
	tab := baseTable(t, "fig1")
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Column 2 is "vs native": 1-container near 1x, then monotone growth.
	oneC := cell(t, tab.Rows[1][2])
	twoC := cell(t, tab.Rows[2][2])
	fourC := cell(t, tab.Rows[3][2])
	if oneC > 1.15 {
		t.Errorf("1-container ratio %.2f, want ~1", oneC)
	}
	if !(fourC > twoC && twoC > oneC) {
		t.Errorf("degradation not monotone: %v %v %v", oneC, twoC, fourC)
	}
	if twoC < 1.3 {
		t.Errorf("2-container ratio %.2f, want significant degradation", twoC)
	}
}

func TestFigure3aShape(t *testing.T) {
	tab := baseTable(t, "fig3a")
	// Communication share grows with container count; compute stays flat.
	nativeComm := cell(t, tab.Rows[0][1])
	fourComm := cell(t, tab.Rows[3][1])
	if fourComm <= nativeComm {
		t.Errorf("comm share should grow: native %v%%, 4-containers %v%%", nativeComm, fourComm)
	}
	nativeCompute := cell(t, tab.Rows[0][2])
	fourCompute := cell(t, tab.Rows[3][2])
	if ratio := fourCompute / nativeCompute; ratio > 1.25 || ratio < 0.75 {
		t.Errorf("compute should stay ~flat: native %vms vs 4-cont %vms", nativeCompute, fourCompute)
	}
}

func TestTableIShape(t *testing.T) {
	tab := baseTable(t, "tableI")
	// Rows: CMA, SHM, HCA; columns: channel, Native, 1C, 2C, 4C.
	get := func(row, col int) float64 { return cell(t, tab.Rows[row][col]) }
	// Native and 1-container never use the HCA.
	if get(2, 1) != 0 || get(2, 2) != 0 {
		t.Errorf("HCA ops nonzero for native/1-container: %v %v", get(2, 1), get(2, 2))
	}
	// HCA ops grow with container count; CMA+SHM shrink.
	if !(get(2, 4) > get(2, 3) && get(2, 3) > 0) {
		t.Errorf("HCA ops not growing: 2C=%v 4C=%v", get(2, 3), get(2, 4))
	}
	if !(get(0, 1) > get(0, 3) && get(0, 3) > get(0, 4)) {
		t.Errorf("CMA ops not shrinking: %v %v %v", get(0, 1), get(0, 3), get(0, 4))
	}
}

func TestFigure7aOptimumNear8K(t *testing.T) {
	tab := baseTable(t, "fig7a")
	// At the 8K probe size, find the eager setting with best bandwidth;
	// it should be 8K or its immediate neighbors.
	best, bestBW := 0, 0.0
	for _, row := range tab.Rows {
		eager := int(cell(t, row[0]))
		bw := cell(t, row[2]) // bw@8K column
		if bw > bestBW {
			best, bestBW = eager, bw
		}
	}
	if best < 4096 || best > 16384 {
		t.Errorf("bw@8K optimum at eager=%d, want near 8K", best)
	}
}

func TestFigure7bSmallRingsHurt(t *testing.T) {
	tab := baseTable(t, "fig7b")
	first := cell(t, tab.Rows[0][2])              // 16K ring, bw@8K
	last := cell(t, tab.Rows[len(tab.Rows)-1][2]) // 1M ring
	mid := cell(t, tab.Rows[3][2])                // 128K ring
	if first >= mid {
		t.Errorf("16K ring (%v MB/s) should underperform 128K ring (%v MB/s)", first, mid)
	}
	if last < mid*0.8 {
		t.Errorf("1M ring (%v) collapsed vs 128K (%v)", last, mid)
	}
}

func TestFigure7cInteriorOptimum(t *testing.T) {
	tab := baseTable(t, "fig7c")
	// At the 16K probe, bandwidth should peak once the threshold admits the
	// message eagerly (threshold >= 16K), i.e. later rows beat the first.
	first := cell(t, tab.Rows[0][2])
	var best float64
	for _, row := range tab.Rows {
		if v := cell(t, row[2]); v > best {
			best = v
		}
	}
	if best <= first {
		t.Errorf("threshold sweep flat at 16K probe: first=%v best=%v", first, best)
	}
}

func TestFigure10Improvements(t *testing.T) {
	tab := baseTable(t, "fig10")
	if len(tab.Rows) != 12 { // 4 collectives x 3 sizes
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		def := cell(t, row[2])
		opt := cell(t, row[3])
		if opt > def {
			t.Errorf("%s@%s: proposed (%v) slower than default (%v)", row[0], row[1], opt, def)
		}
	}
}

func TestFigure11FlatAware(t *testing.T) {
	tab := baseTable(t, "fig11")
	nativeOpt := cell(t, tab.Rows[0][2])
	for _, row := range tab.Rows[1:] {
		opt := cell(t, row[2])
		if opt > nativeOpt*1.12 {
			t.Errorf("%s: proposed %vms exceeds native %vms by >12%%", row[0], opt, nativeOpt)
		}
	}
	// And the 4-container improvement must be large.
	if imp := cell(t, tab.Rows[3][3]); imp < 20 {
		t.Errorf("4-container improvement = %v%%, want substantial", imp)
	}
}

func TestFigure12AllApplicationsImprove(t *testing.T) {
	tab := baseTable(t, "fig12")
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want graph500 + 5 NAS kernels", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		def := cell(t, row[1])
		opt := cell(t, row[2])
		if opt > def*1.02 {
			t.Errorf("%s: proposed %vms slower than default %vms", row[0], opt, def)
		}
	}
	// CG specifically must improve (the paper's 11% headline).
	cg := tab.Rows[1]
	if imp := cell(t, cg[4]); imp < 2 {
		t.Errorf("CG improvement = %v%%, want > 2%%", imp)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Columns: []string{"a", "bb"}, Notes: "n"}
	tab.AddRow("1", "2")
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== X: t ==", "a", "bb", "-- n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Columns: []string{"a", "b"}}
	tab.AddRow("1", "with,comma")
	tab.AddRow("2", `with"quote`)
	var sb strings.Builder
	tab.RenderCSV(&sb)
	want := "a,b\n1,\"with,comma\"\n2,\"with\"\"quote\"\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

func TestScalingExtensionImprovementPersists(t *testing.T) {
	tab := baseTable(t, "ext-scaling")
	for _, row := range tab.Rows {
		def, opt := cell(t, row[2]), cell(t, row[3])
		if opt >= def {
			t.Errorf("%s hosts: proposed (%v) not faster than default (%v)", row[0], opt, def)
		}
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFaultsExtensionShape(t *testing.T) {
	tab := baseTable(t, "ext-faults")
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want clean + faulty + repeat", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[6] != "true" {
			t.Errorf("%s: results incorrect", row[0])
		}
	}
	clean, faulty, repeat := tab.Rows[0], tab.Rows[1], tab.Rows[2]
	if cell(t, clean[2]) != 0 || cell(t, clean[4]) != 0 || cell(t, clean[5]) != 0 {
		t.Errorf("clean run shows fault counters: %v", clean)
	}
	if cell(t, faulty[2]) == 0 || cell(t, faulty[4]) == 0 || cell(t, faulty[5]) == 0 {
		t.Errorf("faulty run missing retransmits/fallbacks: %v", faulty)
	}
	if cell(t, faulty[1]) <= cell(t, clean[1]) {
		t.Errorf("faults did not cost time: clean %v, faulty %v", clean[1], faulty[1])
	}
	for i := 1; i < len(faulty); i++ {
		if faulty[i] != repeat[i] {
			t.Errorf("faulty runs diverged in col %d: %q vs %q", i, faulty[i], repeat[i])
		}
	}
}
