package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Team is a fixed set of helper goroutines that run the parallel
// regions of one caller: a closed-loop run starts its team once and
// splits every parallel stage of every frame over it, where
// ParallelRows starts goroutines per call. The caller takes a share of
// each region itself, so a team of w workers starts w-1 helpers.
//
// A region (Rows) cuts its rows into chunks that the caller and the
// helpers claim one at a time, so a helper that is busy elsewhere, or
// starts late, just claims fewer; the caller returns once every chunk
// is done. Besides regions a team runs one task at a time (Go) on a
// helper while the caller goes on. Between regions a goroutine that
// waits polls for a short while (teamSpin) and then parks, so helpers
// sleep between frames.
//
// Like ParallelRows, a region only partitions loop bounds: a kernel
// whose rows depend solely on its inputs gives the same bits for every
// team size. A Team is driven from one goroutine at a time. The nil
// *Team is a team of one: its regions and tasks run on the caller.
type Team struct {
	helpers int

	// claim holds the current region's generation (bits 32–63), its
	// chunk count (bits 16–31) and its next unclaimed chunk (bits
	// 0–15). A goroutine owns chunk c once it has moved the word from
	// next = c to c+1 within the region's generation; only then does
	// it read the region's fields, which the caller writes between
	// regions alone.
	claim       atomic.Uint64
	pending     atomic.Int32 // chunks of the current region not yet done
	fn          func(i0, i1 int)
	rows, grain int

	task      func()
	taskState atomic.Int32 // taskIdle, taskPosted or taskRunning

	mu           sync.Mutex
	wake         sync.Cond    // parked helpers wait on it, under mu
	done         sync.Cond    // the parked caller waits on it, under mu
	parked       atomic.Int32 // helpers waiting on wake
	callerParked atomic.Int32 // 1 while the caller waits on done
	closed       atomic.Bool
	exited       sync.WaitGroup
}

const (
	taskIdle int32 = iota
	taskPosted
	taskRunning
)

// teamSpin is how long a goroutine of a team polls for what it waits
// for before it parks: long enough to bridge the gaps between the
// regions of one frame, short enough that helpers sleep between
// frames.
const teamSpin = 50 * time.Microsecond

// teamChunks is the number of chunks per worker a region cuts its rows
// into: enough that a late or busy worker leaves at most a small tail,
// few enough that claiming them costs nothing measurable.
const teamChunks = 8

// NewTeam starts a team of workers goroutines, the caller included:
// workers <= 0 means GOMAXPROCS. A team of one needs no goroutine, so
// for it NewTeam returns nil, which runs everything on the caller.
// Close stops the helpers.
func NewTeam(workers int) *Team {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		return nil
	}
	t := &Team{helpers: workers - 1}
	t.wake.L, t.done.L = &t.mu, &t.mu
	t.exited.Add(t.helpers)
	for range t.helpers {
		go t.help()
	}
	return t
}

// Rows runs fn over the row range [0, rows) split into contiguous
// chunks, on the caller and the team's helpers, and returns when every
// chunk is done. A team of one, or a single row, runs fn(0, rows) on
// the caller.
func (t *Team) Rows(rows int, fn func(i0, i1 int)) {
	if t == nil || rows <= 1 {
		fn(0, rows)
		return
	}
	chunks := min(rows, teamChunks*(t.helpers+1), 1<<15)
	grain := (rows + chunks - 1) / chunks
	chunks = (rows + grain - 1) / grain
	t.fn, t.rows, t.grain = fn, rows, grain
	t.pending.Store(int32(chunks))
	gen := t.claim.Load()>>32 + 1
	t.claim.Store(gen<<32 | uint64(chunks)<<16)
	t.notify()
	t.work()
	t.park(func() bool { return t.pending.Load() == 0 }, &t.done, &t.callerParked)
	t.fn = nil
}

// Go runs fn on a helper while the caller goes on; Wait waits for it.
// A team runs one task at a time, so Go first waits for the last one.
// On a team of one Go runs fn before it returns.
func (t *Team) Go(fn func()) {
	if t == nil {
		fn()
		return
	}
	t.Wait()
	t.task = fn
	t.taskState.Store(taskPosted)
	t.notify()
}

// Wait returns once the task Go posted last is done. A task no helper
// has started yet runs on the caller.
func (t *Team) Wait() {
	if t == nil || t.taskState.Load() == taskIdle {
		return
	}
	if t.runTask() {
		return
	}
	t.park(func() bool { return t.taskState.Load() == taskIdle }, &t.done, &t.callerParked)
}

// Close waits for the task Go posted last, stops the helpers and
// returns when they have exited. The team must not be used after Close.
func (t *Team) Close() {
	if t == nil {
		return
	}
	t.Wait()
	t.closed.Store(true)
	t.mu.Lock()
	t.wake.Broadcast()
	t.mu.Unlock()
	t.exited.Wait()
}

// notify wakes the parked helpers after the caller has posted work.
func (t *Team) notify() {
	if t.parked.Load() > 0 {
		t.mu.Lock()
		t.wake.Broadcast()
		t.mu.Unlock()
	}
}

// work claims and runs chunks of the current region until none is
// left, and signals a parked caller when it finishes the region's last.
func (t *Team) work() {
	for {
		v := t.claim.Load()
		next, chunks := v&0xffff, v>>16&0xffff
		if next >= chunks {
			return
		}
		if !t.claim.CompareAndSwap(v, v+1) {
			continue
		}
		i0 := int(next) * t.grain
		t.fn(i0, min(i0+t.grain, t.rows))
		if t.pending.Add(-1) == 0 {
			t.signalCaller()
		}
	}
}

// runTask runs the posted task if no other goroutine has started it,
// and reports whether it did.
func (t *Team) runTask() bool {
	if !t.taskState.CompareAndSwap(taskPosted, taskRunning) {
		return false
	}
	t.task()
	t.task = nil
	t.taskState.Store(taskIdle)
	t.signalCaller()
	return true
}

// signalCaller wakes the caller if it parked waiting for a region or a
// task.
func (t *Team) signalCaller() {
	if t.callerParked.Load() > 0 {
		t.mu.Lock()
		t.done.Signal()
		t.mu.Unlock()
	}
}

// park returns once ready reports true, polling it for teamSpin and
// then waiting on c, counted in waiting, until a signal finds it ready.
func (t *Team) park(ready func() bool, c *sync.Cond, waiting *atomic.Int32) {
	start := time.Now()
	for i := 1; !ready(); i++ {
		if i%64 != 0 {
			continue
		}
		if time.Since(start) < teamSpin {
			runtime.Gosched()
			continue
		}
		t.mu.Lock()
		waiting.Add(1)
		for !ready() {
			c.Wait()
		}
		waiting.Add(-1)
		t.mu.Unlock()
		return
	}
}

// help is a helper's loop: wait for work, then run the posted task and
// the current region, until the team is closed.
func (t *Team) help() {
	defer t.exited.Done()
	ready := func() bool {
		v := t.claim.Load()
		return t.closed.Load() || t.taskState.Load() == taskPosted || v&0xffff < v>>16&0xffff
	}
	for {
		t.park(ready, &t.wake, &t.parked)
		if t.closed.Load() {
			return
		}
		t.runTask()
		t.work()
	}
}
