package isp

import (
	"math"
	"math/rand"
	"testing"

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
			raw.Set(x, y, v)
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
	raw := syntheticRAW(64, 32)
	base := DemosaicBilinearInto(raw, nil, 1)
	for _, workers := range []int{2, 5} {
		dm := DemosaicBilinearInto(raw, dirtyRGB(64, 32), workers)
		for i := range base.R {
			if dm.R[i] != base.R[i] || dm.G[i] != base.G[i] || dm.B[i] != base.B[i] {
				t.Fatalf("demosaic workers=%d differs at %d", workers, i)
			}
		}
		dnSerial := DenoiseBilateralInto(base, nil, 1)
		dn := DenoiseBilateralInto(base, dirtyRGB(64, 32), workers)
		for i := range dnSerial.R {
			if dn.R[i] != dnSerial.R[i] {
				t.Fatalf("denoise workers=%d differs at %d", workers, i)
			}
		}
		cmSerial, cmPar := base.Clone(), base.Clone()
		ApplyColorMap(cmSerial, 1)
		ApplyColorMap(cmPar, workers)
		gmSerial, gmPar := base.Clone(), base.Clone()
		gmSerial.R[5] = float32(math.NaN())
		gmPar.R[5] = float32(math.NaN())
		ApplyGamutMap(gmSerial, 1)
		ApplyGamutMap(gmPar, workers)
		tmSerial, tmPar := base.Clone(), base.Clone()
		ApplyToneMap(tmSerial, 1)
		ApplyToneMap(tmPar, workers)
		for i := range base.R {
			if cmPar.R[i] != cmSerial.R[i] || gmPar.R[i] != gmSerial.R[i] || tmPar.R[i] != tmSerial.R[i] {
				t.Fatalf("in-place stage workers=%d differs at %d", workers, i)
			}
		}
	}
}
