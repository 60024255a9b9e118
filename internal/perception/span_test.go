package perception

import (
	"fmt"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/raster"
)

// footprintReads returns, for each row of an iw×ih frame, the first and
// one past the last column Detect reads there under roi, as its
// footprint is built: columns x0 and min(x0+1, iw-1) of every on-image
// sample, on both source rows of its BEV row. A row nothing reads is
// the empty span.
func footprintReads(d *Detector, roi ROI, iw, ih int) []raster.Span {
	work := *d
	work.BevW = d.bevWidth(roi)
	work.scratch = &detScratch{}
	fp := work.footprint(roi, iw, ih)
	reads := make([]raster.Span, ih)
	for row, fr := range fp.rows {
		if !fr.ok {
			continue
		}
		for _, s := range fp.samples[row*work.BevW : (row+1)*work.BevW] {
			if s.x0 < 0 {
				continue
			}
			a, b := int(s.x0), min(int(s.x0)+1, iw-1)+1
			for _, y := range [2]int{fr.r0 / iw, fr.r1 / iw} {
				if r := reads[y]; r.A < r.B {
					reads[y] = raster.Span{A: min(a, r.A), B: max(b, r.B)}
				} else {
					reads[y] = raster.Span{A: a, B: b}
				}
			}
		}
	}
	return reads
}

// TestSourceSpansCoverFootprints fails unless SourceSpans of every ROI,
// and of the empty ROI that ROIByID returns for an unknown id, is
// exactly the hull of the footprint's reads on every row, at camera
// sizes from 64×32 to 512×256 and odd ones: every bilinear read (x0 and
// x0+1 on rows r0 and r1 of every sample) lies in its row's span, the
// span's first and last columns are read, and a row nothing reads is
// empty. A reused, dirtied dst must give the same spans.
func TestSourceSpansCoverFootprints(t *testing.T) {
	unknown, ok := ROIByID(0)
	if ok || unknown != (ROI{}) {
		t.Fatalf("ROIByID(0) = %+v, %v; want the empty ROI", unknown, ok)
	}
	sizes := [][2]int{{64, 32}, {96, 48}, {128, 64}, {160, 80}, {192, 96}, {256, 128}, {320, 160}, {512, 256}, {66, 34}, {200, 101}, {97, 49}}
	for _, sz := range sizes {
		iw, ih := sz[0], sz[1]
		d := NewDetector(NewGeometry(camera.Scaled(iw, ih)))
		dirty := make([]raster.Span, ih+3)
		for i := range dirty {
			dirty[i] = raster.Span{A: 1, B: iw}
		}
		for _, roi := range append(ROIs[:len(ROIs):len(ROIs)], unknown) {
			where := fmt.Sprintf("%dx%d ROI %d", iw, ih, roi.ID)
			want := footprintReads(d, roi, iw, ih)
			got := d.SourceSpans(nil, iw, ih, roi)
			reused := d.SourceSpans(dirty, iw, ih, roi)
			if len(got) != ih || len(reused) != ih {
				t.Fatalf("%s: %d and %d spans, want %d", where, len(got), len(reused), ih)
			}
			pixels := 0
			for y := range want {
				if got[y] != want[y] || reused[y] != want[y] {
					t.Fatalf("%s: row %d span %v (reused %v), footprint reads %v", where, y, got[y], reused[y], want[y])
				}
				pixels += want[y].B - want[y].A
			}
			if roi.ID != 0 && pixels == 0 {
				t.Fatalf("%s: reads no pixel", where)
			}
			if roi.ID != 0 {
				lo, hi := raster.SpanRows(got)
				t.Logf("%s: rows [%d, %d), %d pixels (%.0f%% of the frame)", where, lo, hi, pixels, 100*float64(pixels)/float64(iw*ih))
			}
		}
	}
}
