package classifier

import (
	"math/rand"
	"testing"

	"hsas/internal/cnn"
	"hsas/internal/knobs"
	"hsas/internal/raster"
)

// TestClassifyZeroAllocs pins Classify's steady-state claim: once the
// first call has sized the resize and tensor scratch, serial calls
// allocate nothing, at fp32 and int8, on a 96×48 frame that must be
// resized to the 48×24 input. The subtests keep the "wb=false" suffix
// of the white-balance axis this test once had, so their names stay
// those of the earlier runs.
func TestClassifyZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img := raster.NewRGB(96, 48)
	for _, plane := range [][]float32{img.R, img.G, img.B} {
		for i := range plane {
			plane[i] = rng.Float32()
		}
	}
	for _, prec := range []struct{ name, knob string }{{"fp32", knobs.PrecisionFP32}, {"int8", knobs.PrecisionInt8}} {
		t.Run(prec.name+"/wb=false", func(t *testing.T) {
			net, err := cnn.ResNetLite(3, 24, 48, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			c := &Classifier{Kind: Road, Net: net, InW: 48, InH: 24}
			c.SetKernelWorkers(1)
			if err := c.SetPrecision(prec.knob); err != nil {
				t.Fatal(err)
			}
			want := c.Classify(img)
			var got int
			if allocs := testing.AllocsPerRun(20, func() { got = c.Classify(img) }); allocs != 0 {
				t.Fatalf("steady-state Classify allocates %v times per call", allocs)
			}
			if got != want {
				t.Fatalf("Classify = %d after warm-up, %d on the first call", got, want)
			}
		})
	}
}
