package sched

import (
	"math"
	"testing"
	"testing/quick"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/task"
)

// submitAt schedules a Submit at time at and records the completion time
// in done under the task id.
func submitAt(sim *des.Simulator, st *Stage, at des.Time, id task.ID, prio float64, sub task.Subtask, done map[task.ID]des.Time) {
	sim.At(at, func() {
		st.Submit(id, prio, sub, func(now des.Time) { done[id] = now })
	})
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 1, 1, 1, task.NewSubtask(2.5), done)
	sim.Run()
	if got := done[1]; got != 3.5 {
		t.Fatalf("completion at %v, want 3.5", got)
	}
	if got := st.BusyTime(sim.Now()); got != 2.5 {
		t.Fatalf("busy time %v, want 2.5", got)
	}
	if !st.Idle() {
		t.Fatal("stage should be idle after completion")
	}
}

// TestSubmitSegmentsOrWhole: a subtask without explicit segments runs as
// one non-critical segment covering its whole demand, held inside the
// job; explicit segments run as given. The exec model transforms the
// job's own inline segment in place but never the task's segment slice,
// which other stages and retries still read.
func TestSubmitSegmentsOrWhole(t *testing.T) {
	for _, model := range []bool{false, true} {
		sim := des.New()
		st := New(sim, "s0")
		st.RegisterLock(3, 0)
		scale := 1.0
		if model {
			scale = 2
			st.SetExecModel(func(_ task.ID, d float64) float64 { return 2 * d })
		}
		whole := st.Submit(1, 1, task.NewSubtask(1.5), nil)
		if len(whole.segments) != 1 || &whole.segments[0] != &whole.whole[0] ||
			whole.segments[0] != (task.Segment{Duration: 1.5 * scale, Lock: task.NoLock}) {
			t.Fatalf("model=%v: whole-subtask segments %+v, want one inline {%v NoLock}", model, whole.segments, 1.5*scale)
		}
		sub := task.Subtask{Demand: 1.5, Segments: []task.Segment{{Duration: 1, Lock: 3}, {Duration: 0.5, Lock: task.NoLock}}}
		explicit := st.Submit(2, 2, sub, nil)
		if len(explicit.segments) != 2 || explicit.segments[0].Duration != scale || explicit.segments[1].Duration != 0.5*scale {
			t.Fatalf("model=%v: explicit segments %+v", model, explicit.segments)
		}
		if sub.Segments[0].Duration != 1 || sub.Segments[1].Duration != 0.5 {
			t.Fatalf("model=%v: exec model rewrote the task's own segments: %+v", model, sub.Segments)
		}
		sim.Run()
	}
}

func TestPriorityOrderAmongQueued(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	var order []task.ID
	record := func(id task.ID) func(des.Time) {
		return func(des.Time) { order = append(order, id) }
	}
	// All submitted at t=0 while a long job runs; they execute in priority order.
	sim.At(0, func() {
		st.Submit(99, 0, task.NewSubtask(1), record(99)) // runs first
		st.Submit(1, 3, task.NewSubtask(1), record(1))
		st.Submit(2, 1, task.NewSubtask(1), record(2))
		st.Submit(3, 2, task.NewSubtask(1), record(3))
	})
	sim.Run()
	want := []task.ID{99, 2, 3, 1}
	for i, id := range want {
		if order[i] != id {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestEqualPriorityFIFO(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	var order []task.ID
	sim.At(0, func() {
		st.Submit(50, 5, task.NewSubtask(3), func(des.Time) { order = append(order, 50) })
	})
	sim.At(1, func() {
		st.Submit(1, 5, task.NewSubtask(1), func(des.Time) { order = append(order, 1) })
	})
	sim.At(2, func() {
		st.Submit(2, 5, task.NewSubtask(1), func(des.Time) { order = append(order, 2) })
	})
	sim.Run()
	if order[0] != 50 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("equal priorities must run in submission order, got %v", order)
	}
	if st.Stats().Preemptions != 0 {
		t.Fatalf("equal priority must not preempt, got %d preemptions", st.Stats().Preemptions)
	}
}

func TestPreemption(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 0, 1, 10, task.NewSubtask(10), done) // low priority, long
	submitAt(sim, st, 2, 2, 1, task.NewSubtask(3), done)   // urgent, arrives mid-run
	sim.Run()
	if done[2] != 5 {
		t.Fatalf("urgent job completed at %v, want 5 (preempts immediately)", done[2])
	}
	if done[1] != 13 {
		t.Fatalf("preempted job completed at %v, want 13 (2 run + 3 wait + 8 run)", done[1])
	}
	if st.Stats().Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", st.Stats().Preemptions)
	}
}

func TestNestedPreemption(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 0, 1, 30, task.NewSubtask(10), done)
	submitAt(sim, st, 1, 2, 20, task.NewSubtask(10), done)
	submitAt(sim, st, 2, 3, 10, task.NewSubtask(10), done)
	sim.Run()
	if done[3] != 12 || done[2] != 21 || done[1] != 30 {
		t.Fatalf("completions %v, want 3:12 2:21 1:30", done)
	}
}

func TestBusyTimeAcrossIdlePeriods(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 0, 1, 1, task.NewSubtask(2), done)
	submitAt(sim, st, 10, 2, 1, task.NewSubtask(3), done)
	sim.Run()
	if got := st.BusyTime(sim.Now()); got != 5 {
		t.Fatalf("busy time %v, want 5", got)
	}
}

func TestBusyTimeWhileRunning(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	st.Submit(1, 1, task.NewSubtask(10), nil)
	sim.At(4, func() {
		if got := st.BusyTime(sim.Now()); got != 4 {
			t.Errorf("busy time mid-run %v, want 4", got)
		}
	})
	sim.Run()
}

func TestIdleHookFiresOnEveryTransition(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	var idleAt []des.Time
	st.OnIdle(func(now des.Time) { idleAt = append(idleAt, now) })
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 0, 1, 1, task.NewSubtask(2), done)
	submitAt(sim, st, 10, 2, 1, task.NewSubtask(3), done)
	sim.Run()
	if len(idleAt) != 2 || idleAt[0] != 2 || idleAt[1] != 13 {
		t.Fatalf("idle transitions at %v, want [2 13]", idleAt)
	}
}

func TestIdleHookNotFiredWhileBackToBack(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	idles := 0
	st.OnIdle(func(des.Time) { idles++ })
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 0, 1, 1, task.NewSubtask(5), done)
	submitAt(sim, st, 2, 2, 1, task.NewSubtask(5), done) // arrives while busy
	sim.Run()
	if idles != 1 {
		t.Fatalf("idle hook fired %d times, want 1", idles)
	}
}

func TestCompletionCallbackMaySubmitToSameStage(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	var second des.Time
	sim.At(0, func() {
		st.Submit(1, 1, task.NewSubtask(2), func(des.Time) {
			st.Submit(2, 1, task.NewSubtask(3), func(now des.Time) { second = now })
		})
	})
	sim.Run()
	if second != 5 {
		t.Fatalf("chained job completed at %v, want 5", second)
	}
	if got := st.BusyTime(sim.Now()); got != 5 {
		t.Fatalf("busy time %v, want 5 (no idle gap between chained jobs)", got)
	}
}

func TestZeroDemandJobCompletesImmediately(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 3, 1, 1, task.NewSubtask(0), done)
	sim.Run()
	if done[1] != 3 {
		t.Fatalf("zero-demand job completed at %v, want 3", done[1])
	}
}

func TestRemainingAccounting(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	j := st.Submit(1, 10, task.NewSubtask(10), nil)
	sim.At(4, func() {
		// Preempt at t=4; the preempted job should have 6 remaining.
		st.Submit(2, 1, task.NewSubtask(1), nil)
		if got := j.Remaining(); got != 6 {
			t.Errorf("Remaining = %v, want 6", got)
		}
	})
	sim.Run()
	if got := j.Remaining(); got != 0 {
		t.Errorf("Remaining after completion = %v, want 0", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() ([]task.ID, float64) {
		sim := des.New()
		st := New(sim, "s0")
		g := dist.NewRNG(11)
		var order []task.ID
		at := 0.0
		for i := 0; i < 200; i++ {
			id := task.ID(i)
			at += g.ExpFloat64() * 0.5
			prio := g.Float64()
			demand := g.ExpFloat64()
			sim.At(at, func() {
				st.Submit(id, prio, task.NewSubtask(demand), func(des.Time) {
					order = append(order, id)
				})
			})
		}
		sim.Run()
		return order, st.BusyTime(sim.Now())
	}
	o1, b1 := run()
	o2, b2 := run()
	if b1 != b2 || len(o1) != len(o2) {
		t.Fatal("replay diverged")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("replay order diverged at %d", i)
		}
	}
}

// TestWorkConservationQuick: when every submitted job completes, the
// stage's busy time equals the total submitted demand (the scheduler never
// idles with pending work and never loses or duplicates work).
func TestWorkConservationQuick(t *testing.T) {
	g := dist.NewRNG(5)
	f := func(seeds []uint16) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 64 {
			seeds = seeds[:64]
		}
		sim := des.New()
		st := New(sim, "s0")
		total := 0.0
		completed := 0
		for i, s := range seeds {
			at := float64(s % 97)
			demand := float64(s%31)/4 + 0.01
			prio := float64(s % 13)
			total += demand
			id := task.ID(i)
			sim.At(at, func() {
				st.Submit(id, prio, task.NewSubtask(demand), func(des.Time) { completed++ })
			})
		}
		sim.Run()
		if completed != len(seeds) {
			return false
		}
		return math.Abs(st.BusyTime(sim.Now())-total) < 1e-6
	}
	_ = g
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestUrgentJobDelayBound: with independent tasks (no locks), an urgent
// job's stage delay never exceeds its own demand plus the remaining work
// of the single job running at its arrival plus demands of more urgent
// jobs — here specialized to the highest-priority job in the run.
func TestMostUrgentJobDelay(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	// Background load.
	for i := 0; i < 10; i++ {
		at := float64(i)
		id := task.ID(100 + i)
		sim.At(at, func() { st.Submit(id, 50, task.NewSubtask(2), nil) })
	}
	var doneAt des.Time
	sim.At(5.5, func() {
		st.Submit(1, 0, task.NewSubtask(1), func(now des.Time) { doneAt = now })
	})
	sim.Run()
	if doneAt != 6.5 {
		t.Fatalf("most urgent job finished at %v, want 6.5 (immediate preemption)", doneAt)
	}
}

func TestUnregisteredLockPanics(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unregistered lock")
		}
	}()
	st.Submit(1, 1, task.Subtask{Demand: 1, Segments: []task.Segment{{Duration: 1, Lock: 7}}}, nil)
}

func TestStatsCounters(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 0, 1, 10, task.NewSubtask(10), done)
	submitAt(sim, st, 1, 2, 1, task.NewSubtask(1), done)
	submitAt(sim, st, 2, 3, 1, task.NewSubtask(1), done)
	sim.Run()
	s := st.Stats()
	if s.Submitted != 3 || s.Completed != 3 {
		t.Fatalf("submitted/completed = %d/%d, want 3/3", s.Submitted, s.Completed)
	}
	if s.Preemptions < 1 {
		t.Fatalf("expected at least one preemption, got %d", s.Preemptions)
	}
}

func TestPreemptionOverheadChargedToPreemptedJob(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	st.SetPreemptionOverhead(0.5)
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 0, 1, 10, task.NewSubtask(4), done)
	submitAt(sim, st, 1, 2, 1, task.NewSubtask(1), done)
	sim.Run()
	// Urgent job: [1,2). Preempted job: 1 executed + 3 remaining + 0.5
	// overhead -> resumes at 2, finishes at 5.5.
	if done[2] != 2 {
		t.Fatalf("urgent done at %v, want 2", done[2])
	}
	if done[1] != 5.5 {
		t.Fatalf("preempted done at %v, want 5.5 (0.5 overhead charged)", done[1])
	}
}

func TestPreemptionOverheadZeroByDefault(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	done := map[task.ID]des.Time{}
	submitAt(sim, st, 0, 1, 10, task.NewSubtask(4), done)
	submitAt(sim, st, 1, 2, 1, task.NewSubtask(1), done)
	sim.Run()
	if done[1] != 5 {
		t.Fatalf("preempted done at %v, want 5 (no overhead)", done[1])
	}
}

func TestPreemptionOverheadValidation(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.SetPreemptionOverhead(-1)
}

func TestBusyPeriodStats(t *testing.T) {
	sim := des.New()
	st := New(sim, "s0")
	done := map[task.ID]des.Time{}
	// Busy period 1: [0, 3) (two back-to-back jobs). Busy period 2: [10, 12).
	submitAt(sim, st, 0, 1, 1, task.NewSubtask(2), done)
	submitAt(sim, st, 1, 2, 1, task.NewSubtask(1), done)
	submitAt(sim, st, 10, 3, 1, task.NewSubtask(2), done)
	sim.Run()
	s := st.Stats()
	if s.BusyPeriods != 2 {
		t.Fatalf("BusyPeriods = %d, want 2", s.BusyPeriods)
	}
	if s.LongestBusyPeriod != 3 {
		t.Fatalf("LongestBusyPeriod = %v, want 3", s.LongestBusyPeriod)
	}
}
