package experiments

import (
	"testing"
)

func findRow(t *testing.T, tab *Table, key string) []string {
	t.Helper()
	for _, row := range tab.Rows {
		if row[0] == key {
			return row
		}
	}
	t.Fatalf("row %q not found", key)
	return nil
}

func TestFigure3bcChannelOrdering(t *testing.T) {
	tab := baseTable(t, "fig3bc")
	// Columns: bytes, SHM lat, CMA lat, HCA lat, SHM bw, CMA bw, HCA bw.
	small := findRow(t, tab, "1024")
	if shm, hca := cell(t, small[1]), cell(t, small[3]); shm >= hca {
		t.Errorf("1KiB: SHM latency %v should beat HCA %v", shm, hca)
	}
	if shm, cma := cell(t, small[1]), cell(t, small[2]); shm >= cma {
		t.Errorf("1KiB: SHM latency %v should beat CMA %v (syscall overhead)", shm, cma)
	}
	big := findRow(t, tab, "1048576")
	if cma, shm := cell(t, big[2]), cell(t, big[1]); cma >= shm {
		t.Errorf("1MiB: CMA latency %v should beat SHM %v (single copy)", cma, shm)
	}
	if cmaBW, hcaBW := cell(t, big[5]), cell(t, big[6]); cmaBW <= hcaBW {
		t.Errorf("1MiB: CMA bw %v should beat HCA loopback bw %v", cmaBW, hcaBW)
	}
	// The paper's headline: SHM beats HCA by a large margin at small sizes.
	if ratio := cell(t, small[3]) / cell(t, small[1]); ratio < 2 {
		t.Errorf("1KiB HCA/SHM latency ratio %v, want >= 2 (paper: up to 77%% better)", ratio)
	}
}

func TestFigure8SeriesOrdering(t *testing.T) {
	tab := baseTable(t, "fig8")
	// Latency section: rows until the first "--" marker.
	// Columns: bytes, Cont-intra-Def, Cont-intra-Opt, Cont-inter-Def,
	// Cont-inter-Opt, Native-intra.
	for _, row := range tab.Rows {
		if row[0] == "--" {
			break
		}
		def, opt, nat := cell(t, row[1]), cell(t, row[2]), cell(t, row[5])
		if opt >= def {
			t.Errorf("%s B: Opt latency %v not below Def %v", row[0], opt, def)
		}
		if nat > opt*1.001 {
			t.Errorf("%s B: native %v above Opt %v", row[0], nat, opt)
		}
	}
	// 1KiB anchor: Def ~2.26us / Opt ~0.47us / native ~0.44us.
	r1k := findRow(t, tab, "1024")
	if d := cell(t, r1k[1]); d < 1.8 || d > 3.2 {
		t.Errorf("1KiB Def latency %v, want ~2.26us", d)
	}
	if o := cell(t, r1k[2]); o < 0.3 || o > 0.7 {
		t.Errorf("1KiB Opt latency %v, want ~0.47us", o)
	}
}

func TestFigure9OneSidedShape(t *testing.T) {
	tab, err := Figure9(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// First section is put latency; 4-byte row.
	row4 := findRow(t, tab, "4")
	def, opt := cell(t, row4[1]), cell(t, row4[2])
	if ratio := def / opt; ratio < 8 {
		t.Errorf("4B put latency Def/Opt ratio %.1f, want >= 8 (paper ~95%% improvement)", ratio)
	}
}
