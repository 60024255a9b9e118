package perception

import (
	"fmt"
	"testing"

	"hsas/internal/camera"
)

// footprintRows returns the image rows the footprint of roi reads from
// an iw×ih frame, as Detect builds it: both source rows of every BEV row
// on the image.
func footprintRows(d *Detector, roi ROI, iw, ih int) []int {
	work := *d
	work.BevW = d.bevWidth(roi)
	work.scratch = &detScratch{}
	var rows []int
	for _, fr := range work.footprint(roi, iw, ih).rows {
		if fr.ok {
			rows = append(rows, fr.r0/iw, fr.r1/iw)
		}
	}
	return rows
}

// TestSourceRowsCoverFootprints fails if any footprint row (r0 or r1) of
// any ROI, or of the empty ROI that ROIByID returns for an unknown id,
// falls outside SourceRows over ROIs, at camera sizes from 64×32 to
// 512×256. SourceRows must also be tight: its first and last rows are
// footprint rows, for the union and for each ROI alone.
func TestSourceRowsCoverFootprints(t *testing.T) {
	unknown, ok := ROIByID(0)
	if ok || unknown != (ROI{}) {
		t.Fatalf("ROIByID(0) = %+v, %v; want the empty ROI", unknown, ok)
	}
	sizes := [][2]int{{64, 32}, {96, 48}, {128, 64}, {160, 80}, {192, 96}, {256, 128}, {320, 160}, {512, 256}, {66, 34}, {200, 101}}
	for _, sz := range sizes {
		iw, ih := sz[0], sz[1]
		d := NewDetector(NewGeometry(camera.Scaled(iw, ih)))
		lo, hi := d.SourceRows(iw, ih, ROIs...)
		if lo < 0 || lo >= hi || hi > ih {
			t.Fatalf("%dx%d: band [%d, %d) is empty or off the frame", iw, ih, lo, hi)
		}
		unionLo, unionHi := ih, 0
		for _, roi := range append(ROIs[:len(ROIs):len(ROIs)], unknown) {
			where := fmt.Sprintf("%dx%d ROI %d", iw, ih, roi.ID)
			rows := footprintRows(d, roi, iw, ih)
			ownLo, ownHi := ih, 0
			for _, y := range rows {
				if y < lo || y >= hi {
					t.Fatalf("%s: footprint reads row %d outside the band [%d, %d)", where, y, lo, hi)
				}
				ownLo, ownHi = min(ownLo, y), max(ownHi, y+1)
			}
			if len(rows) == 0 {
				ownLo, ownHi = 0, 0
			} else {
				unionLo, unionHi = min(unionLo, ownLo), max(unionHi, ownHi)
			}
			if gotLo, gotHi := d.SourceRows(iw, ih, roi); gotLo != ownLo || gotHi != ownHi {
				t.Fatalf("%s: SourceRows [%d, %d), footprint rows span [%d, %d)", where, gotLo, gotHi, ownLo, ownHi)
			}
		}
		if lo != unionLo || hi != unionHi {
			t.Fatalf("%dx%d: band [%d, %d), footprint rows span [%d, %d)", iw, ih, lo, hi, unionLo, unionHi)
		}
		t.Logf("%dx%d: band rows [%d, %d), %.0f%% of the frame", iw, ih, lo, hi, 100*float64(hi-lo)/float64(ih))
	}
}
