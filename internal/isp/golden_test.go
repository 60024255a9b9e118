package isp

import (
	"math"
	"math/rand"
	"testing"

	"hsas/internal/mat"
	"hsas/internal/raster"
)

// syntheticRAW builds a deterministic mosaic with structure (gradients,
// stripes, speckle, out-of-range values) that exercises every kernel
// path: the bilateral's range term, the gamut knee, NaN clearing.
func syntheticRAW(w, h int) *raster.Bayer {
	rng := rand.New(rand.NewSource(42))
	raw := raster.NewBayer(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.5*float32(x)/float32(w) + 0.3*float32(y)/float32(h)
			if (x/7)%2 == 0 {
				v += 0.25
			}
			v += float32(rng.NormFloat64()) * 0.02
			if x == 3 && y == 5 {
				v = 1.7 // specular overshoot, exercises the gamut knee
			}
			raw.Pix[y*w+x] = v
		}
	}
	return raw
}

func dirtyRGB(w, h int) *raster.RGB {
	im := raster.NewRGB(w, h)
	for i := range im.R {
		im.R[i] = float32(math.NaN())
		im.G[i] = -99
		im.B[i] = 1e9
	}
	return im
}

// TestProcessIntoMatchesSerial is the golden byte-identity test of the
// PR: for every Table II configuration and several worker counts,
// ProcessInto into pre-dirtied recycled buffers must equal the
// allocating serial Process bit for bit.
func TestProcessIntoMatchesSerial(t *testing.T) {
	const w, h = 64, 32
	raw := syntheticRAW(w, h)
	for _, cfg := range Knobs {
		golden := cfg.Process(raw)
		for _, workers := range []int{1, 2, 3, 8} {
			out := dirtyRGB(w, h)
			tmp := dirtyRGB(w, h)
			got := cfg.ProcessInto(raw, out, tmp, workers)
			if got != out && got != tmp {
				t.Fatalf("%s workers=%d: returned image is neither out nor tmp", cfg.ID, workers)
			}
			for i := range golden.R {
				if math.Float32bits(got.R[i]) != math.Float32bits(golden.R[i]) ||
					math.Float32bits(got.G[i]) != math.Float32bits(golden.G[i]) ||
					math.Float32bits(got.B[i]) != math.Float32bits(golden.B[i]) {
					t.Fatalf("%s workers=%d: pixel %d differs: got (%v,%v,%v) want (%v,%v,%v)",
						cfg.ID, workers, i, got.R[i], got.G[i], got.B[i],
						golden.R[i], golden.G[i], golden.B[i])
				}
			}
		}
	}
}

// TestProcessIntoNilBuffers checks the allocate-on-nil convenience path.
func TestProcessIntoNilBuffers(t *testing.T) {
	raw := syntheticRAW(32, 16)
	for _, id := range []string{"S0", "S8"} {
		cfg, _ := ByID(id)
		golden := cfg.Process(raw)
		got := cfg.ProcessInto(raw, nil, nil, 4)
		for i := range golden.R {
			if got.R[i] != golden.R[i] || got.G[i] != golden.G[i] || got.B[i] != golden.B[i] {
				t.Fatalf("%s: pixel %d differs with nil buffers", id, i)
			}
		}
	}
}

// TestStageWorkersMatchSerial pins each parallel stage kernel against
// its serial counterpart on its own (not just composed in Process).
func TestStageWorkersMatchSerial(t *testing.T) {
	team := testTeams(t)
	raw := syntheticRAW(64, 32)
	base := demosaic(raw, nil, raster.FullSpans(raw.W, raw.H), 0, nil)
	for _, workers := range []int{2, 5} {
		dm := demosaic(raw, dirtyRGB(64, 32), raster.FullSpans(raw.W, raw.H), 0, team(workers))
		for i := range base.R {
			if dm.R[i] != base.R[i] || dm.G[i] != base.G[i] || dm.B[i] != base.B[i] {
				t.Fatalf("demosaic workers=%d differs at %d", workers, i)
			}
		}
		dnSerial := denoise(base, nil, raster.FullSpans(base.W, base.H), nil)
		dn := denoise(base, dirtyRGB(64, 32), raster.FullSpans(base.W, base.H), team(workers))
		for i := range dnSerial.R {
			if dn.R[i] != dnSerial.R[i] {
				t.Fatalf("denoise workers=%d differs at %d", workers, i)
			}
		}
		cmSerial, cmPar := base.Clone(), base.Clone()
		colorMap(cmSerial, raster.FullSpans(cmSerial.W, cmSerial.H), nil)
		colorMap(cmPar, raster.FullSpans(cmPar.W, cmPar.H), team(workers))
		gmSerial, gmPar := base.Clone(), base.Clone()
		gmSerial.R[5] = float32(math.NaN())
		gmPar.R[5] = float32(math.NaN())
		gamutMap(gmSerial, raster.FullSpans(gmSerial.W, gmSerial.H), nil)
		gamutMap(gmPar, raster.FullSpans(gmPar.W, gmPar.H), team(workers))
		tmSerial, tmPar := base.Clone(), base.Clone()
		toneMap(tmSerial, raster.FullSpans(tmSerial.W, tmSerial.H), nil)
		toneMap(tmPar, raster.FullSpans(tmPar.W, tmPar.H), team(workers))
		for i := range base.R {
			if cmPar.R[i] != cmSerial.R[i] || gmPar.R[i] != gmSerial.R[i] || tmPar.R[i] != tmSerial.R[i] {
				t.Fatalf("in-place stage workers=%d differs at %d", workers, i)
			}
		}
	}
}

// TestProcessRowsMatchesFullFrame runs every configuration over span
// sets of the oracle mosaics (rendered frames and odd, degenerate
// sizes): whole-width row ranges touching either border, single rows
// and empty sets, and column spans that start or end at a frame border,
// start on either CFA parity, cover one pixel, or shift from row to row
// with gaps between them. The spans' pixels of the result must hold the
// whole frame's bits, and every other pixel must keep the dirt the
// buffers held, at worker counts 1, 2, 3 and 8.
func TestProcessRowsMatchesFullFrame(t *testing.T) {
	team := testTeams(t)
	for name, raw := range oracleMosaics() {
		w, h := raw.W, raw.H
		for _, cfg := range Knobs {
			want := cfg.Process(raw)
			for si, spans := range spanSets(w, h) {
				for _, workers := range []int{1, 2, 3, 8} {
					out, tmp := dirtyRGB(w, h), dirtyRGB(w, h)
					got := cfg.ProcessObservedInto(raw, out, tmp, spans, team(workers), nil)
					dirt := dirtyRGB(w, h)
					for c, pl := range [3][3][]float32{{got.R, want.R, dirt.R}, {got.G, want.G, dirt.G}, {got.B, want.B, dirt.B}} {
						for i := range pl[0] {
							ref := pl[1][i]
							if s := spans[i/w]; i%w < s.A || i%w >= s.B {
								ref = pl[2][i]
							}
							if math.Float32bits(pl[0][i]) != math.Float32bits(ref) {
								t.Fatalf("%s %s spans %d workers=%d: channel %d pixel (%d, %d) is %v, want %v",
									name, cfg.ID, si, workers, c, i%w, i/w, pl[0][i], ref)
							}
						}
					}
				}
			}
		}
	}
}

// spanSets returns the span sets TestProcessRowsMatchesFullFrame runs
// on a w×h frame.
func spanSets(w, h int) [][]raster.Span {
	rows := func(lo, hi int, s raster.Span) []raster.Span {
		spans := make([]raster.Span, h)
		for y := max(lo, 0); y < min(hi, h); y++ {
			spans[y] = s
		}
		return spans
	}
	all := raster.Span{A: 0, B: w}
	sets := [][]raster.Span{}
	for _, r := range [][2]int{{0, h}, {0, 1}, {h - 1, h}, {0, 0}, {h, h}, {h / 2, h / 2},
		{0, (h + 1) / 2}, {h / 2, h}, {1, max(h-1, 1)}, {h / 3, max(2*h/3, h/3)}, {min(2, h), min(3, h)}} {
		sets = append(sets, rows(r[0], r[1], all))
	}
	for _, c := range [][2]int{{0, 1}, {w - 1, w}, {w / 3, max(2*w/3, w/3)}, {min(1, w), w}, {0, max(w-1, 0)},
		{min(2, w), min(3, w)}, {min(3, w), min(4, w)}, {w / 2, w / 2}} {
		s := raster.Span{A: c[0], B: c[1]}
		sets = append(sets, rows(0, h, s), rows(h/3, max(2*h/3, h/3+1), s))
	}
	// Spans that move with the row, leave rows out and end at either
	// border, as a ROI's footprint does.
	shifted := make([]raster.Span, h)
	for y := range shifted {
		if y%5 == 2 {
			continue
		}
		a := (y * 7) % max(w, 1)
		shifted[y] = raster.Span{A: a, B: min(a+1+(y*3)%9, w)}
		if y%4 == 0 {
			shifted[y].A = 0
		}
		if y%6 == 1 {
			shifted[y].B = w
		}
	}
	return append(sets, shifted)
}

// testTeams returns a function giving a team of each worker count,
// started on first use and closed when the test ends.
func testTeams(t testing.TB) func(workers int) *mat.Team {
	teams := map[int]*mat.Team{}
	t.Cleanup(func() {
		for _, team := range teams {
			team.Close()
		}
	})
	return func(workers int) *mat.Team {
		team, ok := teams[workers]
		if !ok {
			team = mat.NewTeam(workers)
			teams[workers] = team
		}
		return team
	}
}
