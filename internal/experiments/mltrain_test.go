package experiments

import (
	"strconv"
	"testing"

	"cmpi/internal/invariant"
)

// TestMLTrainSelectorNeverWorstForced is the selector's acceptance gate:
// at every (placement, size) point the auto row must not be slower than the
// worst forced algorithm, and on the fully co-resident non-power-of-two
// placement the ring must win the large sizes outright (with the selector
// choosing it).
func TestMLTrainSelectorNeverWorstForced(t *testing.T) {
	tbl := baseTable(t, "ext-mltrain")
	// Columns: placement, ranks, bytes, chosen, auto, rd, rab, ring, tree, ps.
	cell := func(row []string, i int) float64 {
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			t.Fatalf("cell %q: %v", row[i], err)
		}
		return v
	}
	for _, row := range tbl.Rows {
		placement, bytes := row[0], row[2]
		auto := cell(row, 4)
		forced := []float64{cell(row, 5), cell(row, 6), cell(row, 7), cell(row, 8)}
		worst, best := forced[0], forced[0]
		for _, v := range forced[1:] {
			if v > worst {
				worst = v
			}
			if v < best {
				best = v
			}
		}
		if auto > worst {
			t.Errorf("%s/%sB: auto %v slower than worst forced %v", placement, bytes, auto, worst)
		}
		// Large co-resident non-power-of-two gradients: ring must be the
		// best forced algorithm and the selector must have picked it.
		if placement == "co-res-12" && bytes == "1048576" {
			if ring := cell(row, 7); ring != best {
				t.Errorf("co-res-12 large: ring %v is not the best forced algorithm (best %v)", ring, best)
			}
			if row[3] != "ring" {
				t.Errorf("co-res-12 large: selector chose %q, want ring", row[3])
			}
			if auto != best {
				t.Errorf("co-res-12 large: auto %v != best forced %v", auto, best)
			}
		}
		// The power-of-two co-resident placement flips to Rabenseifner.
		if placement == "co-res-16" && bytes == "1048576" && row[3] != "rab" {
			t.Errorf("co-res-16 large: selector chose %q, want rab", row[3])
		}
	}
}

// TestMLTrainDispatchWidthDeterminism locks the ext-mltrain table to the
// repo's core invariant: byte-identical renderings at every epoch dispatch
// width.
func TestMLTrainDispatchWidthDeterminism(t *testing.T) {
	invariant.Check(t, table("ext-mltrain"), invariant.Point{}, invariant.Widths(invariant.Point{}, 2, 4, 8)...)
}
