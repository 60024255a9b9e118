package mat

import (
	"sync"
	"testing"
)

func TestParallelRowsCoversEveryRowOnce(t *testing.T) {
	for _, h := range []int{1, 2, 3, 7, 16, 100, 101} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, 200} {
			counts := make([]int32, h)
			var mu sync.Mutex
			ParallelRows(h, workers, func(y0, y1 int) {
				if y0 < 0 || y1 > h || y0 >= y1 {
					t.Errorf("h=%d workers=%d: bad chunk [%d, %d)", h, workers, y0, y1)
					return
				}
				mu.Lock()
				for y := y0; y < y1; y++ {
					counts[y]++
				}
				mu.Unlock()
			})
			for y, c := range counts {
				if c != 1 {
					t.Fatalf("h=%d workers=%d: row %d visited %d times", h, workers, y, c)
				}
			}
		}
	}
}

func TestParallelRowsSerialOnCallerGoroutine(t *testing.T) {
	// workers==1 must run inline (kernels rely on this for the RNG-bearing
	// serial paths).
	calls := 0
	ParallelRows(10, 1, func(y0, y1 int) {
		calls++
		if y0 != 0 || y1 != 10 {
			t.Fatalf("serial chunk [%d, %d)", y0, y1)
		}
	})
	if calls != 1 {
		t.Fatalf("serial ParallelRows made %d calls", calls)
	}
}
