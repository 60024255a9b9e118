package raster

import (
	"bytes"
	"math"
	"testing"
)

func TestGrayAccessBounds(t *testing.T) {
	g := NewGray(4, 3)
	g.Pix[1*4+2] = 0.5
	if got := g.At(2, 1); got != 0.5 {
		t.Fatalf("At = %v, want 0.5", got)
	}
	if got := g.At(-1, 0); got != 0 {
		t.Fatalf("out-of-bounds read = %v, want 0", got)
	}
}

func TestRGBAccessBounds(t *testing.T) {
	im := NewRGB(4, 4)
	im.Set(1, 2, 0.1, 0.2, 0.3)
	if i := 2*4 + 1; im.R[i] != 0.1 || im.G[i] != 0.2 || im.B[i] != 0.3 {
		t.Fatalf("Set wrote %v %v %v", im.R[i], im.G[i], im.B[i])
	}
	im.Set(4, 4, 1, 1, 1) // dropped
	im.Set(-1, 0, 1, 1, 1)
	for i := range im.R {
		if i != 2*4+1 && (im.R[i] != 0 || im.G[i] != 0 || im.B[i] != 0) {
			t.Fatalf("out-of-bounds write landed at %d", i)
		}
	}
}

func TestLumaWeights(t *testing.T) {
	im := NewRGB(1, 1)
	im.Set(0, 0, 1, 1, 1)
	if got := im.Luma().At(0, 0); math.Abs(float64(got)-1) > 1e-5 {
		t.Fatalf("luma of white = %v, want 1", got)
	}
	im.Set(0, 0, 0, 1, 0)
	if got := im.Luma().At(0, 0); math.Abs(float64(got)-0.7152) > 1e-5 {
		t.Fatalf("luma of green = %v, want 0.7152", got)
	}
}

func TestClampInPlace(t *testing.T) {
	im := NewRGB(2, 1)
	im.Set(0, 0, -0.5, 1.5, 0.25)
	im.Clamp()
	r, g, b := im.R[0], im.G[0], im.B[0]
	if r != 0 || g != 1 || b != 0.25 {
		t.Fatalf("Clamp = %v %v %v", r, g, b)
	}
}

func TestBayerPattern(t *testing.T) {
	cases := []struct {
		x, y int
		want CFA
	}{
		{0, 0, CFARed}, {1, 0, CFAGreen}, {0, 1, CFAGreen}, {1, 1, CFABlue},
		{2, 2, CFARed}, {3, 3, CFABlue}, {2, 1, CFAGreen},
	}
	for _, c := range cases {
		if got := ColorAt(c.x, c.y); got != c.want {
			t.Fatalf("ColorAt(%d,%d) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestBayerMirroredBorders(t *testing.T) {
	b := NewBayer(4, 4)
	b.Pix[0] = 0.7
	if got := b.At(-1, 0); got != 0.7 {
		t.Fatalf("mirrored read = %v, want 0.7", got)
	}
	b.Pix[3*4+3] = 0.2
	if got := b.At(4, 3); got != 0.2 {
		t.Fatalf("mirrored read right = %v, want 0.2", got)
	}
}

func TestBayerOddDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBayer(3,4) did not panic")
		}
	}()
	NewBayer(3, 4)
}

func TestResizeConstantImage(t *testing.T) {
	im := NewRGB(16, 8)
	for i := range im.R {
		im.R[i], im.G[i], im.B[i] = 0.3, 0.6, 0.9
	}
	out := im.ResizeInto(NewRGB(5, 3))
	if out.W != 5 || out.H != 3 {
		t.Fatalf("Resize dims %dx%d", out.W, out.H)
	}
	for i := range out.R {
		if math.Abs(float64(out.R[i])-0.3) > 1e-5 ||
			math.Abs(float64(out.G[i])-0.6) > 1e-5 ||
			math.Abs(float64(out.B[i])-0.9) > 1e-5 {
			t.Fatalf("constant image changed at %d: %v %v %v", i, out.R[i], out.G[i], out.B[i])
		}
	}
}

func TestResizePreservesMeanApprox(t *testing.T) {
	im := NewRGB(32, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 32; x++ {
			im.Set(x, y, float32(x)/31, 0, 0)
		}
	}
	out := im.ResizeInto(NewRGB(8, 4))
	var inMean, outMean float64
	for _, v := range im.R {
		inMean += float64(v)
	}
	inMean /= float64(len(im.R))
	for _, v := range out.R {
		outMean += float64(v)
	}
	outMean /= float64(len(out.R))
	if math.Abs(inMean-outMean) > 0.03 {
		t.Fatalf("mean drifted: in %v out %v", inMean, outMean)
	}
}

func TestCloneIndependence(t *testing.T) {
	im := NewRGB(2, 2)
	c := im.Clone()
	c.Set(0, 0, 1, 1, 1)
	if im.R[0] != 0 || im.G[0] != 0 || im.B[0] != 0 {
		t.Fatal("RGB.Clone shares storage")
	}
}

func TestWritePPMHeaderAndSize(t *testing.T) {
	im := NewRGB(3, 2)
	var buf bytes.Buffer
	if err := im.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	want := len("P6\n3 2\n255\n") + 3*2*3
	if buf.Len() != want {
		t.Fatalf("PPM size = %d, want %d", buf.Len(), want)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P6\n3 2\n255\n")) {
		t.Fatalf("PPM header wrong: %q", buf.Bytes()[:11])
	}
}

func TestClamp01(t *testing.T) {
	if Clamp01(-1) != 0 || Clamp01(2) != 1 || Clamp01(0.5) != 0.5 {
		t.Fatal("Clamp01 broken")
	}
}
