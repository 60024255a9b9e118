package mat

import (
	"runtime"
	"sync"
)

// resolveWorkers turns a requested worker bound into an effective one:
// <= 0 means GOMAXPROCS, and the bound never exceeds the row count.
func resolveWorkers(rows, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, rows)
}

// ParallelRows splits the row range [0, rows) into up to `workers`
// contiguous chunks and runs fn on each concurrently, on goroutines
// started for the call, returning when all chunks are done. workers <= 0
// uses GOMAXPROCS; workers == 1 (or rows == 1) runs fn(0, rows) on the
// calling goroutine. It is the one-shot split of the GEMMs; the frame
// stages of a closed-loop run split over its Team.
//
// The split only partitions loop bounds: a kernel whose per-row output
// depends solely on its (immutable) inputs produces byte-identical
// results for every worker count. The GEMMs here satisfy this, which
// their golden and oracle tests enforce.
func ParallelRows(rows, workers int, fn func(i0, i1 int)) {
	workers = resolveWorkers(rows, workers)
	if workers <= 1 {
		fn(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		i0 := w * chunk
		i1 := min(i0+chunk, rows)
		if i0 >= i1 {
			break
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			fn(i0, i1)
		}(i0, i1)
	}
	wg.Wait()
}
