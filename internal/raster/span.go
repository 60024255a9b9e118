package raster

import (
	"fmt"
	"sync/atomic"
)

// Span is the columns [A, B) of one image row that a computation
// covers; A == B covers none. A frame's spans are a []Span with one
// entry per row, so a stage given spans computes only their pixels.
type Span struct{ A, B int }

// fullSpans holds the last whole-frame span set FullSpans built.
var fullSpans atomic.Pointer[[]Span]

// FullSpans returns spans covering every pixel of a w×h frame. The
// slice is shared between callers and must not be written; it is built
// again only when the frame width changes or the frame has more rows.
func FullSpans(w, h int) []Span {
	if p := fullSpans.Load(); p != nil && len(*p) >= h && (h == 0 || (*p)[0] == (Span{0, w})) {
		return (*p)[:h:h]
	}
	s := make([]Span, h)
	for y := range s {
		s[y] = Span{0, w}
	}
	fullSpans.Store(&s)
	return s
}

// CheckSpans reports an error unless spans has one span per row of a
// w×h frame and each lies within the row.
func CheckSpans(spans []Span, w, h int) error {
	if len(spans) != h {
		return fmt.Errorf("raster: %d spans for a frame of %d rows", len(spans), h)
	}
	for y, s := range spans {
		if s.A < 0 || s.A > s.B || s.B > w {
			return fmt.Errorf("raster: row %d span [%d, %d) outside a frame of %d columns", y, s.A, s.B, w)
		}
	}
	return nil
}

// SpanRows returns the rows [lo, hi) from the first to the last
// non-empty span, or 0, 0 when every span is empty.
func SpanRows(spans []Span) (lo, hi int) {
	for lo < len(spans) && spans[lo].A >= spans[lo].B {
		lo++
	}
	if lo == len(spans) {
		return 0, 0
	}
	hi = len(spans)
	for hi > lo && spans[hi-1].A >= spans[hi-1].B {
		hi--
	}
	return lo, hi
}

// Dilated returns row y of spans dilated by k rows and k columns within
// a frame of w columns: the smallest span holding every pixel within k
// rows and k columns of a pixel of rows y−k … y+k. It is empty when
// those rows are. Every pixel a 3×3 filter at a span's pixels reads lies
// in the spans dilated by 1.
func Dilated(spans []Span, y, k, w int) Span {
	a, b := w, 0
	for r := max(y-k, 0); r < min(y+k+1, len(spans)); r++ {
		if s := spans[r]; s.A < s.B {
			a, b = min(a, s.A), max(b, s.B)
		}
	}
	if a >= b {
		return Span{}
	}
	return Span{max(a-k, 0), min(b+k, w)}
}

// DilateSpans sets dst, resized to len(src), to src dilated by k rows
// and k columns within a frame of w columns (see Dilated), and returns
// it. dst must not share memory with src.
func DilateSpans(dst, src []Span, k, w int) []Span {
	if cap(dst) < len(src) {
		dst = make([]Span, len(src))
	}
	dst = dst[:len(src)]
	for y := range dst {
		dst[y] = Dilated(src, y, k, w)
	}
	return dst
}
