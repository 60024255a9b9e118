package world

import (
	"math"
	"math/rand"
	"testing"
)

// segmentLocateOracle is the per-call projection segFrame.locate
// replaced: it derives the segment constants from the start pose on
// every call. segFrame.locate must match it bit for bit.
func segmentLocateOracle(start Pose, k, length, x, y float64) (s, lat float64, ok bool) {
	dx, dy := x-start.X, y-start.Y
	if math.Abs(k) < 1e-12 {
		c, sn := math.Cos(start.Theta), math.Sin(start.Theta)
		s = c*dx + sn*dy
		lat = -sn*dx + c*dy
		return s, lat, s >= -1e-9 && s <= length+1e-9
	}
	r := 1 / k
	cx := start.X - r*math.Sin(start.Theta)
	cy := start.Y + r*math.Cos(start.Theta)
	vx, vy := x-cx, y-cy
	rad := math.Hypot(vx, vy)
	if rad < 1e-9 {
		return 0, 0, false
	}
	if k > 0 {
		lat = r - rad
	} else {
		lat = rad + r
	}
	phi := math.Atan2(vy, vx)
	phi0 := math.Atan2(start.Y-cy, start.X-cx)
	s = normAngle(phi-phi0) / k
	return s, lat, s >= -1e-9 && s <= length+1e-9
}

// locateOracle is Track.Locate over segmentLocateOracle.
func locateOracle(t *Track, x, y, hint, behind, ahead, maxLat float64) (s, lat float64, ok bool) {
	lo, hi := hint-behind, hint+ahead
	bestLat := math.Inf(1)
	found := false
	for i, seg := range t.Segments {
		if t.cum[i]+seg.Length < lo || t.cum[i] > hi {
			continue
		}
		sl, la, in := segmentLocateOracle(t.starts[i], seg.Curvature, seg.Length, x, y)
		if !in || math.Abs(la) > maxLat {
			continue
		}
		if abs := t.cum[i] + sl; abs < lo || abs > hi {
			continue
		}
		if math.Abs(la) < math.Abs(bestLat) {
			bestLat = la
			s = t.cum[i] + sl
			found = true
		}
	}
	if !found {
		return 0, 0, false
	}
	return s, bestLat, true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLocateMatchesOracle checks the hoisted per-segment constants
// against the per-call derivation: random points around every straight,
// left and right arc of the test tracks (including far off-track and
// behind/ahead of the segment), each arc's exact centre, and whole-track
// Locate calls with the hint windows the simulator, renderer and
// baselines use.
func TestLocateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tracks := testTracks()
	kinds := map[string]int{}
	for name, tr := range tracks {
		for i, seg := range tr.Segments {
			f := &tr.frames[i]
			switch {
			case math.Abs(seg.Curvature) < 1e-12:
				kinds["straight"]++
			case seg.Curvature > 0:
				kinds["left"]++
			default:
				kinds["right"]++
			}
			check := func(x, y float64) {
				gs, gl, gok := f.locate(tr.starts[i], seg.Curvature, seg.Length, x, y, math.Inf(1))
				ws, wl, wok := segmentLocateOracle(tr.starts[i], seg.Curvature, seg.Length, x, y)
				if !sameBits(gs, ws) || !sameBits(gl, wl) || gok != wok {
					t.Fatalf("%s segment %d at (%v, %v): got (%v, %v, %v), oracle (%v, %v, %v)",
						name, i, x, y, gs, gl, gok, ws, wl, wok)
				}
				// A finite maxLat may only reject early what the caller
				// would drop for |lat| > maxLat; the rest is unchanged.
				for _, maxLat := range []float64{0, 8, 11} {
					gs, gl, gok := f.locate(tr.starts[i], seg.Curvature, seg.Length, x, y, maxLat)
					if math.Abs(wl) > maxLat {
						if gok && math.Abs(gl) <= maxLat {
							t.Fatalf("%s segment %d at (%v, %v), maxLat %v: kept lat %v, oracle lat %v",
								name, i, x, y, maxLat, gl, wl)
						}
						continue
					}
					if !sameBits(gs, ws) || !sameBits(gl, wl) || gok != wok {
						t.Fatalf("%s segment %d at (%v, %v), maxLat %v: got (%v, %v, %v), oracle (%v, %v, %v)",
							name, i, x, y, maxLat, gs, gl, gok, ws, wl, wok)
					}
				}
			}
			for n := 0; n < 2000; n++ {
				s := (rng.Float64()*1.4 - 0.2) * seg.Length
				lat := rng.NormFloat64() * 6
				x, y := tr.Point(tr.cum[i]+s, lat)
				check(x, y)
			}
			if seg.Curvature != 0 {
				check(f.cx, f.cy) // rad < 1e-9: not locatable
				check(f.cx+1e-12, f.cy-1e-12)
			}
			for _, v := range specialCoords {
				check(v, 1)
				check(1, v)
				check(v, v)
			}
		}
		for n := 0; n < 5000; n++ {
			hint := rng.Float64() * tr.Length()
			x, y := tr.Point(hint+rng.NormFloat64()*5, rng.NormFloat64()*4)
			for _, win := range [][3]float64{{10, 15, 8}, {10, 12, 9}, {20, 40, RoadHalfWidth + 6}} {
				gs, gl, gok := tr.Locate(x, y, hint, win[0], win[1], win[2])
				ws, wl, wok := locateOracle(tr, x, y, hint, win[0], win[1], win[2])
				if !sameBits(gs, ws) || !sameBits(gl, wl) || gok != wok {
					t.Fatalf("%s Locate(%v, %v, hint %v, %v): got (%v, %v, %v), oracle (%v, %v, %v)",
						name, x, y, hint, win, gs, gl, gok, ws, wl, wok)
				}
			}
		}
	}
	for _, k := range []string{"straight", "left", "right"} {
		if kinds[k] == 0 {
			t.Fatalf("no %s segment exercised (%v)", k, kinds)
		}
	}
}

// specialCoords are the non-finite coordinates the locate tests feed in.
var specialCoords = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// testTracks returns the nine-sector track and every paper situation's
// track by name.
func testTracks() map[string]*Track {
	tracks := map[string]*Track{"nine": NineSectorTrack()}
	for _, sit := range PaperSituations {
		tracks[sit.String()] = SituationTrack(sit)
	}
	return tracks
}

// TestViewMatchesOracle checks View.Locate against the per-call Locate
// oracle and View.SurfaceAt against Track.SurfaceAt, bit for bit: random
// points on every test track, hint windows before the start, at 0, on
// every segment boundary and past the end, maxLat 0, 8, 11 and +Inf, and
// NaN and infinite coordinates and hints. SurfaceAt is also asked about
// arclengths outside the view's window.
func TestViewMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nan, inf := math.NaN(), math.Inf(1)
	for name, tr := range testTracks() {
		hints := []float64{-30, -5, 0, tr.Length(), tr.Length() + 5, tr.Length() + 80, nan, inf, -inf}
		for i := range tr.cum {
			hints = append(hints, tr.cum[i], math.Nextafter(tr.cum[i], -inf), math.Nextafter(tr.cum[i], inf))
		}
		for n := 0; n < 50; n++ {
			hints = append(hints, rng.Float64()*tr.Length())
		}
		for _, hint := range hints {
			for _, win := range [][2]float64{{20, 70}, {10, 15}, {0, 0}, {20, nan}} {
				v := tr.View(hint, win[0], win[1])
				for n := 0; n < 40; n++ {
					var x, y float64
					switch {
					case n < len(specialCoords):
						x, y = specialCoords[n], 2
					case n < 2*len(specialCoords):
						x, y = 3, specialCoords[n-len(specialCoords)]
					default:
						x, y = tr.Point(hint+rng.NormFloat64()*30, rng.NormFloat64()*8)
					}
					for _, maxLat := range []float64{0, 8, 11, inf} {
						gs, gl, gok := v.Locate(x, y, maxLat)
						ws, wl, wok := locateOracle(tr, x, y, hint, win[0], win[1], maxLat)
						if !sameBits(gs, ws) || !sameBits(gl, wl) || gok != wok {
							t.Fatalf("%s View(%v, %v).Locate(%v, %v, %v): got (%v, %v, %v), oracle (%v, %v, %v)",
								name, hint, win, x, y, maxLat, gs, gl, gok, ws, wl, wok)
						}
						ts, tl, tok := tr.Locate(x, y, hint, win[0], win[1], maxLat)
						if !sameBits(ts, ws) || !sameBits(tl, wl) || tok != wok {
							t.Fatalf("%s Locate(%v, %v, hint %v, %v, %v): got (%v, %v, %v), oracle (%v, %v, %v)",
								name, x, y, hint, win, maxLat, ts, tl, tok, ws, wl, wok)
						}
						if gok {
							checkViewSurface(t, name, tr, &v, gs, gl)
						}
					}
				}
				for _, s := range []float64{hint, hint - 25, hint + 90, rng.Float64() * tr.Length(), -1, 0, tr.Length(), nan, inf, -inf} {
					checkViewSurface(t, name, tr, &v, s, rng.NormFloat64()*3)
				}
				for i := range tr.cum {
					checkViewSurface(t, name, tr, &v, tr.cum[i], 1.6)
				}
			}
		}
		var zero View
		if _, _, ok := zero.Locate(0, 0, inf); ok {
			t.Fatalf("%s: the zero View located a point", name)
		}
	}
}

func checkViewSurface(t *testing.T, name string, tr *Track, v *View, s, lat float64) {
	t.Helper()
	if got, want := v.SurfaceAt(s, lat), tr.SurfaceAt(s, lat); got != want {
		t.Fatalf("%s View(lo %v, hi %v).SurfaceAt(%v, %v) = %+v, Track.SurfaceAt %+v", name, v.lo, v.hi, s, lat, got, want)
	}
}
