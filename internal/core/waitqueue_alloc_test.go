package core

import (
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// heldQueue builds a two-stage controller near the region boundary with
// n tasks held in its wait queue. The held tasks alternate between
// stage-0-heavy and stage-1-heavy shapes, so the per-stage demand floors
// are both zero: the release lower bound stays inside the region and
// every release has to scan, yet no single held task fits.
func heldQueue(t testing.TB, n int) (*des.Simulator, *Controller, *WaitQueue) {
	t.Helper()
	sim := des.New()
	c := NewController(sim, NewRegion(2), nil)
	w := NewWaitQueue(sim, c, 1e6, func(*task.Task) { t.Fatal("a held task was admitted") })
	if !c.TryAdmit(task.Chain(1, 0, 1e6, 3e5, 3e5)) { // U = (0.3, 0.3)
		t.Fatal("filler task rejected")
	}
	for i := 0; i < n; i++ {
		d := []float64{5e5, 0}
		if i%2 == 1 {
			d[0], d[1] = 0, 5e5
		}
		w.Submit(task.Chain(task.ID(100+i), 0, 1e6, d...))
	}
	if w.PendingLen() != n {
		t.Fatalf("%d tasks held, want %d", w.PendingLen(), n)
	}
	return sim, c, w
}

// TestWaitQueueRetryAllocs: a release that re-tests a held queue of 64
// tasks and admits none allocates nothing.
func TestWaitQueueRetryAllocs(t *testing.T) {
	_, c, w := heldQueue(t, 64)
	if allocs := testing.AllocsPerRun(100, c.fireRelease); allocs != 0 {
		t.Fatalf("release re-testing 64 held tasks allocated %v times, want 0", allocs)
	}
	if w.skipped != 0 {
		t.Fatalf("%d scans skipped; the lower bound should not rule these out", w.skipped)
	}
	if w.PendingLen() != 64 {
		t.Fatalf("%d tasks still held, want 64", w.PendingLen())
	}
}

// TestWaitQueueRetryCustomEstimatorAllocs: the full-scan path a custom
// estimator takes is allocation-free too, and really re-tests every
// held task at every stage.
func TestWaitQueueRetryCustomEstimatorAllocs(t *testing.T) {
	_, c, w := heldQueue(t, 64)
	calls := 0
	c.SetEstimator(func(tk *task.Task, stage int) float64 {
		calls++
		return tk.StageDemand(stage)
	})
	if allocs := testing.AllocsPerRun(100, c.fireRelease); allocs != 0 {
		t.Fatalf("full-scan release allocated %v times, want 0", allocs)
	}
	if want := 101 * 64 * 2; calls != want {
		t.Fatalf("estimator ran %d times, want %d (64 tasks × 2 stages per release)", calls, want)
	}
	if w.skipped != 0 {
		t.Fatalf("%d scans skipped under a custom estimator, want 0", w.skipped)
	}
}

// TestTryAdmitExpiryAllocs: a steady admit → deadline-decrement cycle
// allocates nothing once the expiry timer pool is warm.
func TestTryAdmitExpiryAllocs(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(3), nil)
	tk := task.Chain(1, 0, 1, 0.1, 0.1, 0.1)
	allocs := testing.AllocsPerRun(100, func() {
		tk.Arrival = sim.Now()
		if !c.TryAdmit(tk) {
			t.Fatal("task rejected on an empty controller")
		}
		sim.Run()
	})
	if allocs != 0 {
		t.Fatalf("admit → expiry cycle allocated %v times, want 0", allocs)
	}
	if got := c.Stats().Admitted; got != 101 {
		t.Fatalf("%d admissions, want 101", got)
	}
}

// TestWaitQueueHoldTimeoutAllocs: a warm hold → timeout cycle allocates
// nothing (pooled waiter record, timer dispatch, compaction).
func TestWaitQueueHoldTimeoutAllocs(t *testing.T) {
	sim := des.New()
	// Reserved floors alone leave the region: nothing is admissible.
	c := NewController(sim, NewRegion(2), []float64{0.5, 0.5})
	w := NewWaitQueue(sim, c, 0.2, func(*task.Task) { t.Fatal("task admitted outside the region") })
	tk := task.Chain(1, 0, 1, 0.01, 0.01)
	allocs := testing.AllocsPerRun(100, func() {
		tk.Arrival = sim.Now()
		w.Submit(tk)
		sim.Run()
	})
	if allocs != 0 {
		t.Fatalf("hold → timeout cycle allocated %v times, want 0", allocs)
	}
	if got := w.Stats().TimedOut; got != 101 {
		t.Fatalf("%d timeouts, want 101", got)
	}
	if w.PendingLen() != 0 {
		t.Fatalf("%d tasks still held after their timeouts", w.PendingLen())
	}
}

// TestWaitQueueBoundTightensOnCompact: when a waiter leaves the queue,
// the release lower bound is recomputed from the tasks still held, so a
// small task timing out lets later releases skip scans that only it
// could have passed.
func TestWaitQueueBoundTightensOnCompact(t *testing.T) {
	sim := des.New()
	c := NewController(sim, NewRegion(1), nil)
	w := NewWaitQueue(sim, c, 1, func(*task.Task) { t.Fatal("a held task was admitted") })
	if !c.TryAdmit(task.Chain(1, 0, 100, 50)) { // U = 0.5, headroom ≈ 0.086
		t.Fatal("filler task rejected")
	}
	w.Submit(task.Chain(2, 0, 1, 0.1)) // needs 0.1; held until t = 1
	sim.RunUntil(0.5)
	w.Submit(task.Chain(3, 0.5, 10, 5)) // needs ≈ 0.5; held until t = 1.5
	c.fireRelease()
	if w.skipped != 0 {
		t.Fatal("release skipped while the small task kept the lower bound inside the region")
	}
	sim.RunUntil(1.2) // task 2 times out
	if w.PendingLen() != 1 {
		t.Fatalf("%d tasks held, want 1", w.PendingLen())
	}
	c.fireRelease()
	if w.skipped != 1 {
		t.Fatalf("%d scans skipped after the small task left, want 1", w.skipped)
	}
}
