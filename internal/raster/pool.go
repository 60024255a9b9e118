package raster

import (
	"sync"
	"sync/atomic"
)

// Frame-buffer pools for the per-cycle sensing path. The closed-loop
// simulation renders, ISP-processes and rasterizes hundreds of frames per
// run; recycling the frame buffers keeps the steady-state control cycle
// near allocation-free. Pools are keyed by kind and dimensions, so mixed
// resolutions (full-size figures runs next to reduced characterization
// sweeps) never hand a caller a wrong-sized buffer.
//
// Buffers come back dirty: Get does NOT zero recycled memory. Every
// consumer of a pooled buffer in this repo fully overwrites it (the
// renderer writes every pixel, demosaic writes every output sample), and
// the golden-output tests in internal/isp and internal/camera pin that
// property by pre-filling buffers with garbage.

type poolKind uint8

const (
	poolRGB poolKind = iota
	poolBayer
)

type poolKey struct {
	kind poolKind
	w, h int
}

var (
	poolMu sync.RWMutex
	pools  = map[poolKey]*sync.Pool{}

	poolHits, poolMisses, poolPuts atomic.Uint64
)

// PoolStats is a snapshot of the process-wide frame-pool counters.
type PoolStats struct {
	// Hits counts Gets served from a recycled buffer, Misses Gets that
	// had to allocate, Puts buffers returned for reuse.
	Hits, Misses, Puts uint64
}

// Stats returns the current pool counters. Counters are cumulative for
// the process; consumers (e.g. the sim's obs gauges) report them as-is.
func Stats() PoolStats {
	return PoolStats{Hits: poolHits.Load(), Misses: poolMisses.Load(), Puts: poolPuts.Load()}
}

func poolFor(k poolKey) *sync.Pool {
	poolMu.RLock()
	p := pools[k]
	poolMu.RUnlock()
	if p != nil {
		return p
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if p = pools[k]; p == nil {
		p = &sync.Pool{}
		pools[k] = p
	}
	return p
}

func poolGet(kind poolKind, w, h int) any {
	v := poolFor(poolKey{kind, w, h}).Get()
	if v == nil {
		poolMisses.Add(1)
	} else {
		poolHits.Add(1)
	}
	return v
}

func poolPut(kind poolKind, w, h int, v any) {
	poolPuts.Add(1)
	poolFor(poolKey{kind, w, h}).Put(v)
}

// GetRGB returns a w×h RGB frame, recycled when one is available. The
// pixel contents are arbitrary — callers must fully overwrite the frame.
func GetRGB(w, h int) *RGB {
	if v := poolGet(poolRGB, w, h); v != nil {
		return v.(*RGB)
	}
	return NewRGB(w, h)
}

// PutRGB returns a frame to its pool. The caller must not use it after.
func PutRGB(im *RGB) {
	if im == nil {
		return
	}
	poolPut(poolRGB, im.W, im.H, im)
}

// GetBayer returns a w×h RAW mosaic with arbitrary contents.
func GetBayer(w, h int) *Bayer {
	if v := poolGet(poolBayer, w, h); v != nil {
		return v.(*Bayer)
	}
	return NewBayer(w, h)
}

// PutBayer returns a mosaic to its pool.
func PutBayer(b *Bayer) {
	if b == nil {
		return
	}
	poolPut(poolBayer, b.W, b.H, b)
}
