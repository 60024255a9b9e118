package knobs

import (
	"testing"

	"hsas/internal/isp"
	"hsas/internal/perception"
	"hsas/internal/world"
)

func TestPaperTable3Complete(t *testing.T) {
	if len(PaperTable3) != 21 {
		t.Fatalf("Table III rows = %d, want 21", len(PaperTable3))
	}
	for i, row := range PaperTable3 {
		if row.Situation != world.PaperSituations[i] {
			t.Fatalf("row %d situation %v != PaperSituations[%d] %v", i+1, row.Situation, i, world.PaperSituations[i])
		}
		if _, ok := isp.ByID(row.ISP); !ok {
			t.Fatalf("row %d has unknown ISP %q", i+1, row.ISP)
		}
		if _, ok := perception.ROIByID(row.ROI); !ok {
			t.Fatalf("row %d has unknown ROI %d", i+1, row.ROI)
		}
		if row.SpeedKmph != 30 && row.SpeedKmph != 50 {
			t.Fatalf("row %d speed %v", i+1, row.SpeedKmph)
		}
		if row.TauMs >= row.HMs+1e-9 {
			t.Fatalf("row %d tau %v >= h %v", i+1, row.TauMs, row.HMs)
		}
	}
}

func TestPaperTable3Trends(t *testing.T) {
	// Structural trends from the paper's discussion:
	// straights drive at 50, turns at 30; ROI matches the layout family.
	for i, row := range PaperTable3 {
		switch row.Situation.Layout {
		case world.Straight:
			if row.SpeedKmph != 50 || row.ROI != 1 {
				t.Fatalf("row %d: straight with speed %v ROI %d", i+1, row.SpeedKmph, row.ROI)
			}
		case world.RightTurn:
			if row.SpeedKmph != 30 || (row.ROI != 2 && row.ROI != 3) {
				t.Fatalf("row %d: right turn with speed %v ROI %d", i+1, row.SpeedKmph, row.ROI)
			}
		case world.LeftTurn:
			if row.SpeedKmph != 30 || (row.ROI != 4 && row.ROI != 5) {
				t.Fatalf("row %d: left turn with speed %v ROI %d", i+1, row.SpeedKmph, row.ROI)
			}
		}
		// Fine ROIs (3, 5) are used exactly for dotted-lane turns.
		dottedTurn := row.Situation.Layout != world.Straight && row.Situation.Lane.Form == world.Dotted
		fine := row.ROI == 3 || row.ROI == 5
		if dottedTurn != fine {
			t.Fatalf("row %d: dotted-turn=%v but ROI %d", i+1, dottedTurn, row.ROI)
		}
	}
}

func TestPaperTableLookup(t *testing.T) {
	table := PaperTable()
	if len(table) != 21 {
		t.Fatalf("table size %d", len(table))
	}
	got := table.Lookup(world.PaperSituations[0])
	if got.ISP != "S3" || got.ROI != 1 || got.SpeedKmph != 50 {
		t.Fatalf("situation 1 lookup = %v", got)
	}
	// Unknown situation falls back to a sensible default.
	unknown := world.Situation{Layout: world.LeftTurn, Lane: world.LaneMarking{Color: world.Yellow, Form: world.Dotted}, Scene: world.Dusk}
	fb := table.Lookup(unknown)
	if fb.ISP != "S0" || fb.ROI != 5 || fb.SpeedKmph != 30 {
		t.Fatalf("fallback = %v", fb)
	}
}

func TestRoadROI(t *testing.T) {
	cases := []struct {
		layout world.RoadLayout
		dotted bool
		want   int
	}{
		{world.Straight, false, 1}, {world.Straight, true, 1},
		{world.RightTurn, false, 2}, {world.RightTurn, true, 3},
		{world.LeftTurn, false, 4}, {world.LeftTurn, true, 5},
	}
	for _, c := range cases {
		if got := RoadROI(c.layout, c.dotted); got != c.want {
			t.Fatalf("RoadROI(%v, %v) = %d, want %d", c.layout, c.dotted, got, c.want)
		}
	}
}

func TestCaseSettings(t *testing.T) {
	table := PaperTable()
	sit := world.PaperSituations[12] // right, white dotted, day
	s1 := CaseSetting(Case1, sit, table)
	if s1 != (Setting{ISP: "S0", ROI: 1, SpeedKmph: 50}) {
		t.Fatalf("case 1 = %v", s1)
	}
	s2 := CaseSetting(Case2, sit, table)
	if s2.ROI != 2 || s2.ISP != "S0" || s2.SpeedKmph != 30 {
		t.Fatalf("case 2 = %v (coarse ROI expected)", s2)
	}
	s3 := CaseSetting(Case3, sit, table)
	if s3.ROI != 3 || s3.ISP != "S0" {
		t.Fatalf("case 3 = %v (fine ROI expected)", s3)
	}
	s4 := CaseSetting(Case4, sit, table)
	if s4.ISP != "S3" || s4.ROI != 3 {
		t.Fatalf("case 4 = %v (Table III row 13 expected)", s4)
	}
	sv := CaseSetting(CaseVariable, sit, table)
	if sv != s4 {
		t.Fatalf("variable setting %v != case 4 setting %v", sv, s4)
	}
}

func TestCaseMetadata(t *testing.T) {
	for _, c := range []Case{Case1, Case2, Case3, Case4, CaseVariable} {
		if c.String() == "" {
			t.Fatal("empty case name")
		}
	}
}
