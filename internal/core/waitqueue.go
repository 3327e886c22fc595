package core

import (
	"math"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// WaitStats counts wait-queue outcomes.
type WaitStats struct {
	AdmittedImmediately uint64
	AdmittedAfterWait   uint64
	TimedOut            uint64
}

// regionAdmitter abstracts the chain and DAG controllers for the wait
// queue: test without side effects, then commit.
type regionAdmitter interface {
	// WouldAdmit evaluates the admission test without committing.
	WouldAdmit(t *task.Task) bool
	// commitAdmit commits a task that WouldAdmit accepted.
	commitAdmit(t *task.Task)
	// OnRelease registers a utilization-decrease hook.
	OnRelease(fn func(now des.Time))
	// noneAdmissible reports, without side effects, that no held task
	// whose raw demand at every stage j is at least floor[j] and whose
	// absolute deadline is at most latest can pass the test right now.
	// false means "scan": it is always a safe answer.
	noneAdmissible(floor []float64, latest des.Time) bool
}

// WaitQueue wraps a Controller with the TSCE-style hold behavior (paper
// §5): an arrival that does not fit the feasible region waits up to
// MaxWait for synthetic utilization to be released (by deadline
// decrements or idle resets) before being rejected. While waiting, a
// task's absolute deadline does not move, so a late admission sees a
// shortened effective relative deadline and a correspondingly larger
// contribution — the test stays sound.
//
// A release re-tests the held tasks through one scratch task owned by
// the queue, and skips the scan altogether when a lower bound on every
// held task's increments already leaves the region (THEORY.md §10).
// Waiter records and their timeout timers are pooled, so holding,
// re-testing and timing out allocate nothing.
type WaitQueue struct {
	sim     *des.Simulator
	c       regionAdmitter
	maxWait float64
	admit   func(t *task.Task)

	pending []*waiter
	free    []*waiter // recycled waiter records
	stats   WaitStats

	// scratch is the task a release re-tests: a held task with its
	// arrival moved to now and its deadline shortened to the remaining
	// slack. A copy escapes only when the re-test admits.
	scratch task.Task
	// floor[j] is the smallest raw demand at stage j over the held
	// tasks and latest their latest absolute deadline: together a
	// component-wise lower bound on every held task's increments.
	floor  []float64
	latest des.Time
	// skipped counts releases whose scan the lower bound ruled out.
	skipped uint64
}

// waiter is one held task; it is its own timeout des.Timer.
type waiter struct {
	q       *WaitQueue
	t       *task.Task
	timeout des.Event
	done    bool
}

// Fire times the waiter out: its hold expired before a release admitted it.
func (wt *waiter) Fire(des.Time) {
	wt.done = true
	wt.q.stats.TimedOut++
	wt.q.compact()
}

// NewWaitQueue builds a wait queue over the pipeline controller. admit
// is invoked (synchronously, at admission time) with the task to inject
// — for a late admission the task's Arrival is the admission instant and
// its Deadline is the remaining slack. maxWait ≤ 0 degenerates to
// immediate accept/reject.
func NewWaitQueue(sim *des.Simulator, c *Controller, maxWait float64, admit func(t *task.Task)) *WaitQueue {
	return newWaitQueue(sim, c, len(c.ledgers), maxWait, admit)
}

// NewGraphWaitQueue builds the same hold behavior over the Theorem 2
// controller for DAG tasks.
func NewGraphWaitQueue(sim *des.Simulator, c *GraphController, maxWait float64, admit func(t *task.Task)) *WaitQueue {
	return newWaitQueue(sim, c, 0, maxWait, admit)
}

// newWaitQueue builds the queue; stages is how many per-stage demand
// floors the release lower bound tracks (0 when the controller has no
// such bound).
func newWaitQueue(sim *des.Simulator, c regionAdmitter, stages int, maxWait float64, admit func(t *task.Task)) *WaitQueue {
	if admit == nil {
		panic("core: WaitQueue needs an admit callback")
	}
	w := &WaitQueue{sim: sim, c: c, maxWait: maxWait, admit: admit, floor: make([]float64, stages)}
	w.resetBound()
	c.OnRelease(func(des.Time) { w.retry() })
	return w
}

// Stats returns a snapshot of the wait-queue counters.
func (w *WaitQueue) Stats() WaitStats { return w.stats }

// PendingLen returns the number of tasks currently held.
func (w *WaitQueue) PendingLen() int { return len(w.pending) }

// Submit runs the admission test, holding the task on failure.
func (w *WaitQueue) Submit(t *task.Task) {
	if w.c.WouldAdmit(t) {
		w.c.commitAdmit(t)
		w.stats.AdmittedImmediately++
		w.admit(t)
		return
	}
	if w.maxWait <= 0 {
		w.stats.TimedOut++
		return
	}
	var wt *waiter
	if n := len(w.free); n > 0 {
		wt = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		wt = &waiter{q: w}
	}
	wt.t, wt.done = t, false
	wt.timeout = w.sim.AfterTimer(w.maxWait, wt)
	w.pending = append(w.pending, wt)
	w.extendBound(t)
}

// retry re-tests held tasks in arrival order after a utilization release.
func (w *WaitQueue) retry() {
	if len(w.pending) == 0 {
		return
	}
	if w.c.noneAdmissible(w.floor, w.latest) {
		w.skipped++
		return
	}
	now := w.sim.Now()
	late := &w.scratch
	for _, wt := range w.pending {
		if wt.done {
			continue
		}
		slack := wt.t.AbsoluteDeadline() - now
		if slack <= 0 {
			continue // timeout event will reap it
		}
		*late = *wt.t
		late.Arrival = now
		late.Deadline = slack
		// Test via WouldAdmit and commit directly so that retries do not
		// inflate the controller's rejection counter.
		if !w.c.WouldAdmit(late) {
			continue
		}
		admitted := new(task.Task)
		*admitted = *late
		w.c.commitAdmit(admitted)
		wt.done = true
		w.sim.Cancel(wt.timeout)
		w.stats.AdmittedAfterWait++
		w.admit(admitted)
	}
	*late = task.Task{} // hold no references to a released task
	w.compact()
}

// compact drops completed waiters while preserving arrival order,
// recycles their records, and re-tightens the release lower bound when
// any were dropped.
func (w *WaitQueue) compact() {
	live := w.pending[:0]
	for _, wt := range w.pending {
		if !wt.done {
			live = append(live, wt)
			continue
		}
		// A done waiter's timeout has fired or been cancelled, so
		// nothing refers to the record any more. It stays marked done
		// until Submit reissues it.
		wt.t, wt.timeout = nil, des.Event{}
		w.free = append(w.free, wt)
	}
	if len(live) == len(w.pending) {
		return
	}
	for i := len(live); i < len(w.pending); i++ {
		w.pending[i] = nil
	}
	w.pending = live
	w.resetBound()
	for _, wt := range live {
		w.extendBound(wt.t)
	}
}

// resetBound empties the release lower bound (no task held).
func (w *WaitQueue) resetBound() {
	for j := range w.floor {
		w.floor[j] = math.Inf(1)
	}
	w.latest = math.Inf(-1)
}

// extendBound folds a held task into the release lower bound.
func (w *WaitQueue) extendBound(t *task.Task) {
	for j := range w.floor {
		if d := t.StageDemand(j); d < w.floor[j] {
			w.floor[j] = d
		}
	}
	if a := t.AbsoluteDeadline(); a > w.latest {
		w.latest = a
	}
}
