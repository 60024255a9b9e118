package mat

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestTeamRowsCoversEveryRowOnce runs regions of many sizes back to
// back on teams of several sizes: every row is visited exactly once,
// whatever the chunking, and a team of one is nil and runs inline.
func TestTeamRowsCoversEveryRowOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		team := NewTeam(workers)
		if (team == nil) != (workers == 1) || team != nil && team.helpers != workers-1 {
			t.Fatalf("NewTeam(%d) = %+v", workers, team)
		}
		for _, rows := range []int{0, 1, 2, 3, 7, 16, 100, 101, 1000} {
			counts := make([]atomic.Int32, rows)
			team.Rows(rows, func(i0, i1 int) {
				if i0 < 0 || i1 > rows || i0 > i1 {
					t.Errorf("workers=%d rows=%d: bad chunk [%d, %d)", workers, rows, i0, i1)
					return
				}
				for y := i0; y < i1; y++ {
					counts[y].Add(1)
				}
			})
			for y := range counts {
				if c := counts[y].Load(); c != 1 {
					t.Fatalf("workers=%d rows=%d: row %d visited %d times", workers, rows, y, c)
				}
			}
		}
		team.Close()
	}
}

// TestTeamUsesItsHelpers checks that a region's chunks really spread:
// with a chunk that blocks until another goroutine has run one, a team
// of two finishes only if a helper takes part.
func TestTeamUsesItsHelpers(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	for range 20 {
		var started atomic.Int32
		team.Rows(2, func(i0, i1 int) {
			started.Add(1)
			deadline := time.Now().Add(10 * time.Second)
			for started.Load() < 2 {
				if time.Now().After(deadline) {
					t.Error("no second goroutine took a chunk within 10 s")
					return
				}
				runtime.Gosched()
			}
		})
	}
}

// TestTeamTaskOverlapsRegions posts a task that waits for a region to
// start, then runs regions until it is done: the caller must go on
// while a helper runs the task, and Wait must see its effects.
func TestTeamTaskOverlapsRegions(t *testing.T) {
	for _, workers := range []int{2, 3} {
		team := NewTeam(workers)
		var regions atomic.Int32
		out := make([]int, 1000)
		team.Go(func() {
			for regions.Load() == 0 {
				runtime.Gosched()
			}
			for i := range out {
				out[i] = i
			}
		})
		sum := make([]int64, 64)
		team.Rows(len(sum), func(i0, i1 int) {
			regions.Add(1)
			for i := i0; i < i1; i++ {
				sum[i] = int64(i)
			}
		})
		team.Wait()
		for i, v := range out {
			if v != i {
				t.Fatalf("workers=%d: task result %d is %d after Wait", workers, i, v)
			}
		}
		team.Close()
	}
}

// TestTeamWaitRunsAnUnstartedTask: a task that no helper has started
// when the caller waits for it runs on the caller, so Wait cannot hang
// behind helpers that are busy or parked.
func TestTeamWaitRunsAnUnstartedTask(t *testing.T) {
	var nilTeam *Team
	ran := false
	nilTeam.Go(func() { ran = true })
	if !ran {
		t.Fatal("a team of one did not run the task on the caller")
	}
	nilTeam.Wait()
	nilTeam.Close()

	team := NewTeam(2)
	defer team.Close()
	for k := range 200 {
		n := 0
		team.Go(func() { n = k + 1 })
		team.Wait()
		if n != k+1 {
			t.Fatalf("task %d: Wait returned before the task ran", k)
		}
	}
}

// TestTeamParksAndCloses leaves a team idle past its spin, so its
// helpers park, then wakes it with a region and a task, and checks that
// Close runs a task still posted and leaves no goroutine behind.
func TestTeamParksAndCloses(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{2, 4} {
		team := NewTeam(workers)
		for range 3 {
			time.Sleep(2 * teamSpin)
			var n atomic.Int32
			team.Rows(40, func(i0, i1 int) { n.Add(int32(i1 - i0)) })
			if n.Load() != 40 {
				t.Fatalf("workers=%d: region after parking covered %d rows, want 40", workers, n.Load())
			}
			done := false
			team.Go(func() { done = true })
			time.Sleep(2 * teamSpin)
			team.Wait()
			if !done {
				t.Fatalf("workers=%d: task after parking did not run", workers)
			}
		}
		ran := false
		team.Go(func() { time.Sleep(time.Millisecond); ran = true })
		team.Close()
		if !ran {
			t.Fatalf("workers=%d: Close returned before the posted task ran", workers)
		}
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails unless the goroutine count falls back to want
// within a second: an exited goroutine leaves the count shortly after
// it signals its exit.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTeamRegionsAllocateNothing: a region whose kernel is bound once
// allocates nothing on a running team, nor does a task.
func TestTeamRegionsAllocateNothing(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	rows := make([]float64, 256)
	fn := func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			rows[i]++
		}
	}
	task := func() { rows[0]++ }
	if n := testing.AllocsPerRun(100, func() {
		team.Rows(len(rows), fn)
		team.Go(task)
		team.Wait()
	}); n != 0 {
		t.Fatalf("a region and a task allocate %v times, want 0", n)
	}
}
