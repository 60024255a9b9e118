package raster

import "testing"

func TestPoolRecyclesBuffers(t *testing.T) {
	// Pools are process-wide; measure deltas, not absolutes.
	before := Stats()
	im := GetRGB(32, 16)
	if im.W != 32 || im.H != 16 || len(im.R) != 32*16 {
		t.Fatalf("GetRGB returned %dx%d with %d-element planes", im.W, im.H, len(im.R))
	}
	PutRGB(im)
	// After a Put, a same-size Get must eventually hit the pool. sync.Pool
	// may drop items under GC pressure, so loop Get/Put until the hit
	// counter moves rather than asserting the very first Get recycles.
	hit := false
	for i := 0; i < 100; i++ {
		g := GetRGB(32, 16)
		if Stats().Hits > before.Hits {
			hit = true
			PutRGB(g)
			break
		}
		PutRGB(g)
	}
	if !hit {
		t.Fatal("100 Get/Put cycles of the same size never hit the pool")
	}
	if s := Stats(); s.Misses <= before.Misses {
		t.Fatalf("first Get of a fresh size must miss: %+v vs %+v", s, before)
	}
	if s := Stats(); s.Puts <= before.Puts {
		t.Fatalf("puts not counted: %+v vs %+v", s, before)
	}
}

func TestPoolKeysBySizeAndKind(t *testing.T) {
	a := GetRGB(64, 32)
	PutRGB(a)
	b := GetRGB(128, 32) // different size: must not return a
	if b == a {
		t.Fatal("pool returned a buffer of the wrong size")
	}
	if b.W != 128 || b.H != 32 {
		t.Fatalf("GetRGB(128, 32) returned %dx%d", b.W, b.H)
	}
	ba := GetBayer(64, 32)
	if ba.W != 64 || ba.H != 32 {
		t.Fatalf("GetBayer returned %dx%d", ba.W, ba.H)
	}
	PutRGB(b)
	PutBayer(ba)
	// nil Puts are tolerated.
	PutRGB(nil)
	PutBayer(nil)
}
