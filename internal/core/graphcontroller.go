package core

import (
	"fmt"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// GraphController is the Theorem 2 admission controller for tasks shaped
// as arbitrary DAGs over a set of resources. Each admitted task's own
// feasibility condition d(f(U_k1)+β_k1, ...) ≤ α must hold, so an
// admission is accepted only if the post-admission utilization point
// satisfies the condition of the incoming task AND of every task shape
// currently active (adding utilization can only tighten their paths).
//
// The test is O(Σ shapes' graph sizes), still independent of the number
// of active task instances.
type GraphController struct {
	sim       *des.Simulator
	resources int
	alpha     float64
	betas     []float64 // nil means no blocking
	ledgers   []*Ledger

	shapes map[*task.Graph]int // active instance count per distinct shape

	onRelease []func(now des.Time)
	stats     Stats
}

// NewGraphController builds a controller over the given number of
// resources with urgency-inversion parameter alpha. betas, when non-nil,
// holds one normalized blocking term per resource.
func NewGraphController(sim *des.Simulator, resources int, alpha float64, betas []float64) *GraphController {
	if resources <= 0 {
		panic(fmt.Sprintf("core: graph controller needs resources, got %d", resources))
	}
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("core: alpha must be in (0, 1], got %v", alpha))
	}
	if betas != nil && len(betas) != resources {
		panic(fmt.Sprintf("core: %d betas for %d resources", len(betas), resources))
	}
	ledgers := make([]*Ledger, resources)
	for i := range ledgers {
		ledgers[i] = NewLedger(0)
	}
	return &GraphController{
		sim:       sim,
		resources: resources,
		alpha:     alpha,
		betas:     append([]float64(nil), betas...),
		ledgers:   ledgers,
		shapes:    map[*task.Graph]int{},
	}
}

// SetReserved installs per-resource reserved synthetic-utilization
// floors for pre-certified critical DAG tasks (the §5 reservation
// workflow applied to Theorem 2). It must be called before the first
// admission; calling it with active contributions panics.
func (c *GraphController) SetReserved(reserved []float64) {
	if len(reserved) != c.resources {
		panic(fmt.Sprintf("core: %d reserved values for %d resources", len(reserved), c.resources))
	}
	for i, l := range c.ledgers {
		if l.ActiveTasks() > 0 {
			panic("core: SetReserved after admissions began")
		}
		c.ledgers[i] = NewLedger(reserved[i])
	}
}

// Stats returns a snapshot of admission counters.
func (c *GraphController) Stats() Stats { return c.stats }

// Utilizations returns the current synthetic utilization per resource.
func (c *GraphController) Utilizations() []float64 {
	us := make([]float64, len(c.ledgers))
	for i, l := range c.ledgers {
		us[i] = l.Utilization()
	}
	return us
}

// OnRelease registers fn to run whenever synthetic utilization decreases.
func (c *GraphController) OnRelease(fn func(now des.Time)) {
	c.onRelease = append(c.onRelease, fn)
}

func (c *GraphController) fireRelease() {
	now := c.sim.Now()
	for _, fn := range c.onRelease {
		fn(now)
	}
}

// deltas returns the per-resource utilization increments of t, summing
// nodes that share a resource.
func (c *GraphController) deltas(t *task.Task) []float64 {
	if t.Graph == nil || t.Deadline <= 0 {
		return nil
	}
	d := make([]float64, c.resources)
	for _, n := range t.Graph.Nodes {
		if n.Resource >= c.resources {
			return nil
		}
		d[n.Resource] += n.Subtask.Demand / t.Deadline
	}
	return d
}

// WouldAdmit evaluates the Theorem 2 test without committing.
func (c *GraphController) WouldAdmit(t *task.Task) bool {
	d := c.deltas(t)
	return d != nil && c.wouldAdmitDeltas(t, d)
}

// TryAdmit runs the test and, on success, commits the task's
// contributions and schedules their removal at its absolute deadline.
// The increments are computed once and shared between test and commit.
func (c *GraphController) TryAdmit(t *task.Task) bool {
	d := c.deltas(t)
	if d == nil || !c.wouldAdmitDeltas(t, d) {
		c.stats.Rejected++
		return false
	}
	c.commit(t, d)
	return true
}

// wouldAdmitDeltas evaluates the Theorem 2 test for precomputed deltas.
func (c *GraphController) wouldAdmitDeltas(t *task.Task, d []float64) bool {
	utils := c.Utilizations()
	for i := range utils {
		utils[i] += d[i]
	}
	if !GraphFeasible(t.Graph, utils, c.betas, c.alpha) {
		return false
	}
	for g, n := range c.shapes {
		if n > 0 && g != t.Graph && !GraphFeasible(g, utils, c.betas, c.alpha) {
			return false
		}
	}
	return true
}

// noneAdmissible implements regionAdmitter: the Theorem 2 test has no
// release lower bound here, so the wait queue always scans.
func (c *GraphController) noneAdmissible([]float64, des.Time) bool { return false }

// commitAdmit commits a task WouldAdmit accepted (regionAdmitter).
func (c *GraphController) commitAdmit(t *task.Task) {
	if d := c.deltas(t); d != nil {
		c.commit(t, d)
	}
}

func (c *GraphController) commit(t *task.Task, d []float64) {
	for i, l := range c.ledgers {
		l.Add(t.ID, d[i])
	}
	c.shapes[t.Graph]++
	id, g := t.ID, t.Graph
	c.sim.At(t.AbsoluteDeadline(), func() {
		for _, l := range c.ledgers {
			l.Remove(id)
		}
		if c.shapes[g]--; c.shapes[g] == 0 {
			delete(c.shapes, g)
		}
		c.fireRelease()
	})
	c.stats.Admitted++
}

// MarkDeparted records that the task has no remaining work on the
// resource, making its contribution there eligible for the idle reset.
func (c *GraphController) MarkDeparted(resource int, id task.ID) {
	c.ledgers[resource].MarkDeparted(id)
}

// HandleResourceIdle performs the idle reset for a resource.
func (c *GraphController) HandleResourceIdle(resource int) {
	if c.ledgers[resource].ResetIdle() > 0 {
		c.fireRelease()
	}
}
