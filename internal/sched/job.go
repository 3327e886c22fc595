package sched

import (
	"math"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// Job is one subtask instance executing on a Stage. Jobs are created by
// Stage.Submit and owned by the stage until completion.
type Job struct {
	TaskID task.ID

	base      float64 // assigned priority; lower is more urgent
	inherited float64 // priority inherited under PCP; +Inf when none
	seq       uint64  // submission order, used as a deterministic tie-break

	segments     []task.Segment
	whole        [1]task.Segment // backs segments when the subtask has none of its own
	segIdx       int
	segRemaining float64
	acquired     bool // current segment's lock already held

	heldLock  *lock
	blockedOn *lock

	completion des.Event
	segStart   des.Time
	submitted  des.Time

	// doneT and watchT are the job's embedded des.Timer targets for the
	// segment-completion and budget-watchdog events: scheduling through a
	// pointer to a field the job already owns keeps dispatch at zero
	// allocations (a capturing closure per dispatch would be a heap object).
	doneT  segmentDone
	watchT watchdog

	// Budget accounting for the overrun guard: consumed accumulates the
	// computation time actually executed; budget is the admitted demand
	// estimate (+Inf when unguarded); watch is the pending
	// budget-exhaustion event; overrunFired latches so each job trips the
	// guard at most once.
	consumed     float64
	budget       float64
	watch        des.Event
	overrunFired bool

	onComplete func(now des.Time)

	heapIdx int // index in the ready heap; -1 when not enqueued
}

// Effective returns the job's effective priority: the more urgent of its
// base and inherited priorities.
func (j *Job) Effective() float64 { return math.Min(j.base, j.inherited) }

// Priority returns the job's assigned (base) priority.
func (j *Job) Priority() float64 { return j.base }

// Submitted returns the time the job entered the stage's ready queue.
func (j *Job) Submitted() des.Time { return j.submitted }

// Consumed returns the computation time the job has executed so far,
// excluding the partially-run current dispatch (updated at preemption
// and segment completion; the overrun watchdog adds the in-flight part
// itself).
func (j *Job) Consumed() float64 { return j.consumed }

// Budget returns the job's overrun budget (+Inf when unguarded).
func (j *Job) Budget() float64 { return j.budget }

// Remaining returns the total computation time the job has left.
func (j *Job) Remaining() float64 {
	rem := j.segRemaining
	for i := j.segIdx + 1; i < len(j.segments); i++ {
		rem += j.segments[i].Duration
	}
	return rem
}

// less orders jobs by (effective priority, submission sequence): a job
// preempts or runs ahead of another only if strictly more urgent, or tied
// but submitted earlier. The deterministic tie-break keeps simulations
// reproducible.
func less(a, b *Job) bool {
	ea, eb := a.Effective(), b.Effective()
	if ea != eb {
		return ea < eb
	}
	return a.seq < b.seq
}

// readyHeap is a binary heap of ready jobs keyed by less.
type readyHeap []*Job

func (h readyHeap) Len() int           { return len(h) }
func (h readyHeap) Less(i, j int) bool { return less(h[i], h[j]) }

func (h readyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h *readyHeap) Push(x any) {
	j := x.(*Job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}

func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIdx = -1
	*h = old[:n-1]
	return j
}
