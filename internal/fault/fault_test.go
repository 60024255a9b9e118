package fault

import (
	"math"
	"testing"

	"hsas/internal/raster"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in != NewInjector(nil, 1) {
		t.Fatal("nil schedule must yield a nil injector")
	}
	if NewInjector(&Schedule{}, 1) != nil {
		t.Fatal("empty schedule must yield a nil injector")
	}
	if in.Dropped(0) {
		t.Fatal("nil injector dropped a frame")
	}
	if _, ok := in.Noise(0); ok {
		t.Fatal("nil injector fired noise")
	}
	if _, kinds := in.CorruptFrac(0); kinds != 0 {
		t.Fatal("nil injector fired corruption")
	}
	if _, ok := in.Occlusion(0); ok {
		t.Fatal("nil injector fired occlusion")
	}
	if c, _, ok := in.Class(0, Road, 2, 3); ok || c != 2 {
		t.Fatalf("nil injector changed class: %d", c)
	}
	if _, ok := in.Overrun(0); ok {
		t.Fatal("nil injector fired overrun")
	}
	if in.Counts().Total() != 0 {
		t.Fatal("nil injector counted something")
	}
}

func TestWindowedEventFiresExactlyInWindow(t *testing.T) {
	s := &Schedule{Events: []Event{{Kind: FrameDrop, Start: 10, End: 20}}}
	in := NewInjector(s, 42)
	for f := 0; f < 40; f++ {
		want := f >= 10 && f < 20
		if got := in.Dropped(f); got != want {
			t.Fatalf("frame %d: dropped = %v, want %v", f, got, want)
		}
	}
	if n := in.Counts()[FrameDrop]; n != 10 {
		t.Fatalf("drop count = %d, want 10", n)
	}
	// Open-ended window.
	in2 := NewInjector(&Schedule{Events: []Event{{Kind: FrameDrop, Start: 5}}}, 42)
	if in2.Dropped(4) || !in2.Dropped(5) || !in2.Dropped(100000) {
		t.Fatal("open-ended window mishandled")
	}
}

// TestProbabilisticDecisionsAreOrderIndependent is the heart of the
// determinism contract: firing decisions are pure functions of
// (seed, frame, event index), so querying frames in any order, twice,
// or interleaved with other queries changes nothing.
func TestProbabilisticDecisionsAreOrderIndependent(t *testing.T) {
	sched := &Schedule{Events: []Event{
		{Kind: FrameDrop, Prob: 0.3},
		{Kind: DeadlineOverrun, Prob: 0.5, Mag: 30},
	}}
	const n = 500
	forward := make([]bool, n)
	in := NewInjector(sched, 7)
	fired := 0
	for f := 0; f < n; f++ {
		forward[f] = in.Dropped(f)
		if forward[f] {
			fired++
		}
	}
	if fired == 0 || fired == n {
		t.Fatalf("p=0.3 fired %d/%d times", fired, n)
	}
	// Reverse order, interleaved with overrun queries.
	in2 := NewInjector(sched, 7)
	for f := n - 1; f >= 0; f-- {
		in2.Overrun(f)
		if got := in2.Dropped(f); got != forward[f] {
			t.Fatalf("frame %d: order-dependent decision", f)
		}
	}
	// A different seed must give a different pattern.
	in3 := NewInjector(sched, 8)
	same := 0
	for f := 0; f < n; f++ {
		if in3.Dropped(f) == forward[f] {
			same++
		}
	}
	if same == n {
		t.Fatal("seed does not influence decisions")
	}
}

func TestProbabilityRoughlyRespected(t *testing.T) {
	in := NewInjector(&Schedule{Events: []Event{{Kind: FrameDrop, Prob: 0.25}}}, 99)
	const n = 4000
	fired := 0
	for f := 0; f < n; f++ {
		if in.Dropped(f) {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("p=0.25 fired at rate %.3f", frac)
	}
}

func TestClassFaults(t *testing.T) {
	in := NewInjector(&Schedule{Events: []Event{
		{Kind: ClassStuck, Target: Road, Class: 7}, // clamped to numClasses-1
		{Kind: ClassFlip, Target: Lane},
	}}, 5)
	c, k, ok := in.Class(3, Road, 0, 3)
	if !ok || k != ClassStuck || c != 2 {
		t.Fatalf("stuck: got (%d, %v, %v), want (2, stuck, true)", c, k, ok)
	}
	// Flips must always pick a DIFFERENT class, uniformly-ish.
	seen := map[int]bool{}
	for f := 0; f < 200; f++ {
		c, k, ok := in.Class(f, Lane, 1, 4)
		if !ok || k != ClassFlip {
			t.Fatalf("flip did not fire on frame %d", f)
		}
		if c == 1 {
			t.Fatalf("flip returned the current class on frame %d", f)
		}
		seen[c] = true
	}
	if len(seen) != 3 {
		t.Fatalf("flip covered %d classes, want 3", len(seen))
	}
	// Single-class taxonomy: a flip cannot fire.
	if _, _, ok := in.Class(0, Lane, 0, 1); ok {
		t.Fatal("flip fired with one class")
	}
	// Untargeted classifier: no fault.
	if _, _, ok := in.Class(0, Scene, 0, 5); ok {
		t.Fatal("scene fault fired without a scene event")
	}
}

func TestMaskString(t *testing.T) {
	var m Mask
	if m.String() != "" {
		t.Fatalf("empty mask = %q", m.String())
	}
	m.Add(NoiseBurst)
	if m.String() != "noise" {
		t.Fatalf("single mask = %q", m.String())
	}
	m.Add(ClassStuck)
	if m.String() != "noise+stuck" {
		t.Fatalf("double mask = %q", m.String())
	}
	if !m.Has(NoiseBurst) || m.Has(FrameDrop) {
		t.Fatal("Has misreports")
	}
}

func TestCountsString(t *testing.T) {
	var c Counts
	if c.String() != "none" {
		t.Fatalf("zero counts = %q", c.String())
	}
	c[FrameDrop] = 2
	c[DeadlineOverrun] = 1
	if c.String() != "drop=2 overrun=1" {
		t.Fatalf("counts = %q", c.String())
	}
	if c.Total() != 3 {
		t.Fatalf("total = %d", c.Total())
	}
}

func TestCorruptionKernelsDeterministic(t *testing.T) {
	mk := func() *raster.Bayer {
		b := raster.NewBayer(32, 16)
		for i := range b.Pix {
			b.Pix[i] = float32(i%7) / 7
		}
		return b
	}
	a, b := mk(), mk()
	AddBayerNoise(a, raster.FullSpans(32, 16), 0.2, FrameHash(3, 11))
	AddBayerNoise(b, raster.FullSpans(32, 16), 0.2, FrameHash(3, 11))
	changed := false
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatalf("noise kernel nondeterministic at %d", i)
		}
		if a.Pix[i] != mk().Pix[i] {
			changed = true
		}
		if a.Pix[i] < 0 || a.Pix[i] > 1 {
			t.Fatalf("noise pushed sample outside [0,1]: %v", a.Pix[i])
		}
	}
	if !changed {
		t.Fatal("noise kernel changed nothing")
	}

	ra, rb := raster.NewRGB(32, 16), raster.NewRGB(32, 16)
	CorruptRGBBand(ra, 0.25, FrameHash(3, 11))
	CorruptRGBBand(rb, 0.25, FrameHash(3, 11))
	corrupted := 0
	for i := range ra.R {
		if ra.R[i] != rb.R[i] || ra.G[i] != rb.G[i] || ra.B[i] != rb.B[i] {
			t.Fatalf("corruption kernel nondeterministic at %d", i)
		}
		if ra.R[i] != 0 || ra.G[i] != 0 || ra.B[i] != 0 {
			corrupted++
		}
	}
	// 25% of 16 rows = 4 rows; garbage is 0/1 per channel so ~7/8 of
	// band pixels differ from black.
	if corrupted == 0 || corrupted > 5*32 {
		t.Fatalf("corrupted %d pixels", corrupted)
	}
	// Full-frame corruption must not panic and must touch the frame.
	CorruptRGBBand(raster.NewRGB(8, 4), 1.0, 1)
	CorruptRGBBand(raster.NewRGB(8, 4), 2.5, 1) // clamped
	CorruptRGBBand(raster.NewRGB(8, 4), 0, 1)   // one row
}

// TestCorrelatedCouplesStages: one Correlated event drives the ISP band
// corruption and the classifier bit flip from the SAME per-frame firing
// decision — they trigger on exactly the same frames.
func TestCorrelatedCouplesStages(t *testing.T) {
	s := &Schedule{Events: []Event{{Kind: Correlated, Target: Lane, Mag: 0.4, Prob: 0.3, Start: 10, End: 200}}}
	in := NewInjector(s, 7)
	fired, flipped := 0, 0
	for f := 0; f < 250; f++ {
		frac, kinds := in.CorruptFrac(f)
		_, k, ok := in.Class(f, Lane, 1, 4)
		if kinds.Has(Correlated) != ok {
			t.Fatalf("frame %d: ISP stage fired=%v but flip stage fired=%v", f, kinds.Has(Correlated), ok)
		}
		if kinds.Has(Correlated) {
			fired++
			if frac != 0.4 {
				t.Fatalf("frame %d: corrupt frac %g, want the event's Mag 0.4", f, frac)
			}
			if k != Correlated {
				t.Fatalf("frame %d: flip reported kind %v, want corr", f, k)
			}
			if f < 10 || f >= 200 {
				t.Fatalf("frame %d fired outside the window", f)
			}
		}
		if ok {
			flipped++
		}
		// The untargeted classifier never flips.
		if _, _, rok := in.Class(f, Road, 1, 4); rok {
			t.Fatalf("frame %d: correlated flip leaked to the road classifier", f)
		}
	}
	if fired == 0 || fired == 190 {
		t.Fatalf("p=0.3 over 190 frames fired %d times", fired)
	}
	if flipped != fired {
		t.Fatalf("flips %d != corruptions %d", flipped, fired)
	}
	// One correlated firing is one event: tallied once (at the ISP
	// stage), not once per coupled manifestation.
	if n := in.Counts()[Correlated]; n != int64(fired) {
		t.Fatalf("counts[corr] = %d, want %d", n, fired)
	}
}

// TestCorruptFracMergesKinds: an ISPCorrupt and a Correlated event on
// the same frame merge into one mask with the max magnitude.
func TestCorruptFracMergesKinds(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: ISPCorrupt, Mag: 0.2},
		{Kind: Correlated, Target: Road, Mag: 0.6},
	}}
	in := NewInjector(s, 1)
	frac, kinds := in.CorruptFrac(5)
	if !kinds.Has(ISPCorrupt) || !kinds.Has(Correlated) {
		t.Fatalf("mask %v missing a kind", kinds)
	}
	if frac != 0.6 {
		t.Fatalf("frac %g, want max 0.6", frac)
	}
}

// TestOcclusionQuery: the injector surfaces the occluded fraction over
// its window, max-merged across events.
func TestOcclusionQuery(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: LaneOcclude, Mag: 0.3, Start: 0, End: 50},
		{Kind: LaneOcclude, Mag: 0.7, Start: 40, End: 60},
	}}
	in := NewInjector(s, 1)
	for _, tc := range []struct {
		frame int
		frac  float64
		ok    bool
	}{{0, 0.3, true}, {45, 0.7, true}, {55, 0.7, true}, {60, 0, false}} {
		frac, ok := in.Occlusion(tc.frame)
		if frac != tc.frac || ok != tc.ok {
			t.Fatalf("Occlusion(%d) = (%g, %v), want (%g, %v)", tc.frame, frac, ok, tc.frac, tc.ok)
		}
	}
	if n := in.Counts()[LaneOcclude]; n != 4 {
		t.Fatalf("counts[occlude] = %d, want 4", n)
	}
}

// TestMarkingOccludedProperties pins the occlusion predicate's
// contract: pure, nested across fractions, and roughly calibrated —
// the occluded area fraction tracks frac.
func TestMarkingOccludedProperties(t *testing.T) {
	seed := OcclusionSeed(42)
	if MarkingOccluded(1, 0, 0, seed) || !MarkingOccluded(1, 0, 1, seed) {
		t.Fatal("frac 0 and 1 must be never/always occluded")
	}
	n, hits30, hits60 := 0, 0, 0
	for i := 0; i < 4000; i++ {
		s := float64(i) * 0.17
		lat := float64(i%40)*0.04 - 0.8 // spans negative lat too
		a := MarkingOccluded(s, lat, 0.3, seed)
		b := MarkingOccluded(s, lat, 0.6, seed)
		if a && !b {
			t.Fatalf("nesting violated at (%g, %g): occluded at 0.3 but not 0.6", s, lat)
		}
		if a != MarkingOccluded(s, lat, 0.3, seed) {
			t.Fatal("predicate is not pure")
		}
		n++
		if a {
			hits30++
		}
		if b {
			hits60++
		}
	}
	if f := float64(hits30) / float64(n); f < 0.2 || f > 0.4 {
		t.Errorf("frac 0.3 occluded %.2f of samples", f)
	}
	if f := float64(hits60) / float64(n); f < 0.5 || f > 0.7 {
		t.Errorf("frac 0.6 occluded %.2f of samples", f)
	}
	// A different seed draws a different pattern.
	diff := false
	for i := 0; i < 200 && !diff; i++ {
		s := float64(i) * 0.53
		diff = MarkingOccluded(s, 0.05, 0.5, seed) != MarkingOccluded(s, 0.05, 0.5, OcclusionSeed(43))
	}
	if !diff {
		t.Error("occlusion pattern ignores the seed")
	}
}

// wholeFrameBurst is the burst AddBayerNoise adds over every sample: one
// xorshift step per sample in raster order, clamped to [0, 1]. It is
// the oracle of the span burst.
func wholeFrameBurst(raw *raster.Bayer, sigma float64, streamSeed uint64) {
	x := streamSeed | 1
	for i := range raw.Pix {
		x = xorshift64(x)
		raw.Pix[i] = min(max(raw.Pix[i]+(float32(rand01(x))*2-1)*float32(sigma), 0), 1)
	}
}

// TestAddBayerNoiseSpansMatchWholeFrame: over span sets of every shape
// the loop's RAW spans take and some it never does (whole rows, column
// runs, spans at either border, single samples, empty rows and sets),
// every sample of the spans must equal the whole-frame burst, for
// several seeds and amplitudes, and every other sample must keep its
// value.
func TestAddBayerNoiseSpansMatchWholeFrame(t *testing.T) {
	const w, h = 24, 10
	mk := func() *raster.Bayer {
		b := raster.NewBayer(w, h)
		for i := range b.Pix {
			b.Pix[i] = float32(i%11) / 10
		}
		return b
	}
	rows := func(lo, hi, a, b int) []raster.Span {
		spans := make([]raster.Span, h)
		for y := lo; y < hi; y++ {
			spans[y] = raster.Span{A: a, B: b}
		}
		return spans
	}
	moving := make([]raster.Span, h)
	for y := range moving {
		if y%3 != 1 {
			a := (y * 5) % w
			moving[y] = raster.Span{A: a, B: min(a+1+(y*7)%9, w)}
		}
	}
	sets := [][]raster.Span{
		raster.FullSpans(w, h), rows(0, 0, 0, w), rows(2, 7, 0, w), rows(0, h, 3, 9),
		rows(h-1, h, w-1, w), rows(0, 1, 0, 1), rows(4, 5, 7, 8), rows(1, h-1, 0, w-2), moving,
	}
	for _, seed := range []uint64{FrameHash(1, 0), FrameHash(3, 11), FrameHash(-9, 12345), 0, 1 << 63} {
		for _, sigma := range []float64{0.05, 0.4, 2} {
			want := mk()
			wholeFrameBurst(want, sigma, seed)
			for si, spans := range sets {
				got, orig := mk(), mk()
				AddBayerNoise(got, spans, sigma, seed)
				for i := range got.Pix {
					ref := orig.Pix[i]
					if s := spans[i/w]; i%w >= s.A && i%w < s.B {
						ref = want.Pix[i]
					}
					if math.Float32bits(got.Pix[i]) != math.Float32bits(ref) {
						t.Fatalf("seed %#x sigma %v spans %d: sample (%d, %d) is %v, want %v",
							seed, sigma, si, i%w, i/w, got.Pix[i], ref)
					}
				}
			}
		}
	}
}
