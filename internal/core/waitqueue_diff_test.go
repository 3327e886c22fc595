package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"feasregion/internal/des"
	"feasregion/internal/task"
)

// refWaitQueue is a frozen copy of the wait queue before releases
// re-tested through a scratch task, skipped scans by a lower bound, and
// pooled their timers: every release re-tests every held task through a
// fresh copy, and every hold schedules a capturing closure. The
// differential tests below require the production queue to reproduce
// its decisions bit for bit.
type refWaitQueue struct {
	sim     *des.Simulator
	c       regionAdmitter
	maxWait float64
	admit   func(t *task.Task)

	pending []*refWaiter
	stats   WaitStats
}

type refWaiter struct {
	t       *task.Task
	timeout des.Event
	done    bool
}

func newRefWaitQueue(sim *des.Simulator, c regionAdmitter, maxWait float64, admit func(t *task.Task)) *refWaitQueue {
	w := &refWaitQueue{sim: sim, c: c, maxWait: maxWait, admit: admit}
	c.OnRelease(func(des.Time) { w.retry() })
	return w
}

func (w *refWaitQueue) Submit(t *task.Task) {
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
	wt := &refWaiter{t: t}
	wt.timeout = w.sim.After(w.maxWait, func() {
		wt.done = true
		w.stats.TimedOut++
		w.compact()
	})
	w.pending = append(w.pending, wt)
}

func (w *refWaitQueue) retry() {
	if len(w.pending) == 0 {
		return
	}
	now := w.sim.Now()
	for _, wt := range w.pending {
		if wt.done {
			continue
		}
		slack := wt.t.AbsoluteDeadline() - now
		if slack <= 0 {
			continue
		}
		late := *wt.t
		late.Arrival = now
		late.Deadline = slack
		if !w.c.WouldAdmit(&late) {
			continue
		}
		w.c.commitAdmit(&late)
		wt.done = true
		w.sim.Cancel(wt.timeout)
		w.stats.AdmittedAfterWait++
		w.admit(&late)
	}
	w.compact()
}

func (w *refWaitQueue) compact() {
	live := w.pending[:0]
	for _, wt := range w.pending {
		if !wt.done {
			live = append(live, wt)
		}
	}
	for i := len(live); i < len(w.pending); i++ {
		w.pending[i] = nil
	}
	w.pending = live
}

// admitted is an admitted stream. It keeps the tasks handed to the admit
// callback and renders them only when compared, so a queue that hands
// out a task it later reuses shows up as a difference.
type admitted []*task.Task

// String renders every entry's ID and the exact bits of the instant and
// the (possibly shortened) deadline the task entered at.
func (s admitted) String() string {
	var b strings.Builder
	for _, t := range s {
		fmt.Fprintf(&b, "{%d %x %x}", t.ID, math.Float64bits(t.Arrival), math.Float64bits(t.Deadline))
	}
	return b.String()
}

func record(stream *admitted) func(*task.Task) {
	return func(t *task.Task) { *stream = append(*stream, t) }
}

// chainSide is one of the two chain systems a differential run drives.
type chainSide struct {
	sim    *des.Simulator
	c      *Controller
	submit func(*task.Task)
	stream admitted
}

// chainDiff is a differential run over the chain controller.
type chainDiff struct {
	prod *WaitQueue
	ref  *refWaitQueue
	a, b *chainSide // a drives prod, b drives ref
}

func newChainDiff(stages int, reserved []float64, maxWait float64, est Estimator) *chainDiff {
	d := &chainDiff{}
	mk := func() *chainSide {
		s := &chainSide{sim: des.New()}
		s.c = NewController(s.sim, NewRegion(stages), reserved)
		if est != nil {
			s.c.SetEstimator(est)
		}
		return s
	}
	d.a, d.b = mk(), mk()
	d.prod = NewWaitQueue(d.a.sim, d.a.c, maxWait, record(&d.a.stream))
	d.ref = newRefWaitQueue(d.b.sim, d.b.c, maxWait, record(&d.b.stream))
	d.a.submit, d.b.submit = d.prod.Submit, d.ref.Submit
	return d
}

// both applies one operation to both systems.
func (d *chainDiff) both(op func(s *chainSide)) {
	op(d.a)
	op(d.b)
}

// run drives a random operation sequence through both systems: arrivals
// with zero-demand stages and mixed classes, clock advances, stage
// scales, region inputs, reconfiguration, evictions, and idle resets.
func (d *chainDiff) run(rng *rand.Rand, ops int) {
	stages := len(d.a.c.ledgers)
	classes := []string{"", "tracking", "video"}
	var id task.ID
	for i := 0; i < ops; i++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			id++
			dl := 0.05 + rng.Float64()*1.5
			demands := make([]float64, stages)
			for j := range demands {
				if rng.Float64() < 0.25 {
					continue // zero demand at this stage
				}
				demands[j] = rng.Float64() * dl * 0.3
			}
			arrivalID, class := id, classes[rng.Intn(len(classes))]
			d.both(func(s *chainSide) {
				t := task.Chain(arrivalID, s.sim.Now(), dl, demands...)
				t.Class = class
				s.submit(t)
			})
		case r < 0.7:
			dt := rng.ExpFloat64() * 0.04
			d.both(func(s *chainSide) { s.sim.RunUntil(s.sim.Now() + dt) })
		case r < 0.75:
			j, scale := rng.Intn(stages), []float64{1, 0.5, 0.8, 1.5, 2}[rng.Intn(5)]
			d.both(func(s *chainSide) { s.c.SetStageScale(j, scale) })
		case r < 0.8:
			alpha := []float64{1, 0.9, 0.7}[rng.Intn(3)]
			var betas []float64
			if rng.Float64() < 0.5 {
				betas = make([]float64, stages)
				for j := range betas {
					betas[j] = rng.Float64() * 0.05
				}
			}
			d.both(func(s *chainSide) { s.c.SetRegionInputs(alpha, betas) })
		case r < 0.84:
			reserved := make([]float64, stages)
			for j := range reserved {
				reserved[j] = rng.Float64() * 0.2
			}
			d.both(func(s *chainSide) { s.c.Reconfigure(reserved) })
		case r < 0.9:
			if id == 0 {
				continue
			}
			victim := task.ID(1 + rng.Int63n(int64(id)))
			d.both(func(s *chainSide) { s.c.Evict(victim) })
		default:
			if id == 0 {
				continue
			}
			j := rng.Intn(stages)
			n := 1 + rng.Intn(4)
			departed := make([]task.ID, n)
			for k := range departed {
				departed[k] = task.ID(1 + rng.Int63n(int64(id)))
			}
			d.both(func(s *chainSide) {
				for _, v := range departed {
					s.c.MarkDeparted(j, v)
				}
				s.c.HandleStageIdle(j)
			})
		}
	}
	d.both(func(s *chainSide) { s.sim.Run() })
}

// check compares every observable outcome of the two systems.
func (d *chainDiff) check(t *testing.T, label string) {
	t.Helper()
	if d.a.stream.String() != d.b.stream.String() {
		t.Fatalf("%s: admitted streams differ\nprod %v\nref  %v", label, d.a.stream, d.b.stream)
	}
	if d.prod.Stats() != d.ref.stats {
		t.Fatalf("%s: wait stats %+v, reference %+v", label, d.prod.Stats(), d.ref.stats)
	}
	if d.a.c.Stats() != d.b.c.Stats() {
		t.Fatalf("%s: controller stats %+v, reference %+v", label, d.a.c.Stats(), d.b.c.Stats())
	}
	if d.a.sim.Steps() != d.b.sim.Steps() {
		t.Fatalf("%s: %d simulator events, reference %d", label, d.a.sim.Steps(), d.b.sim.Steps())
	}
	for j := range d.a.c.ledgers {
		ua, ub := d.a.c.Ledger(j).Utilization(), d.b.c.Ledger(j).Utilization()
		if math.Float64bits(ua) != math.Float64bits(ub) {
			t.Fatalf("%s: stage %d utilization %v, reference %v", label, j, ua, ub)
		}
	}
}

// TestWaitQueueDifferential drives random operation sequences through
// the production queue and the frozen reference under the default
// exact-demand estimator, and requires identical decisions. It also
// requires the release lower bound to have skipped scans and the queue
// to have admitted after waiting, so both paths are exercised.
func TestWaitQueueDifferential(t *testing.T) {
	var skipped, afterWait uint64
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stages := 1 + rng.Intn(4)
		var reserved []float64
		if rng.Float64() < 0.5 {
			reserved = make([]float64, stages)
			for j := range reserved {
				reserved[j] = rng.Float64() * 0.2
			}
		}
		d := newChainDiff(stages, reserved, 0.05+rng.Float64()*0.4, nil)
		d.run(rng, 1500)
		d.check(t, fmt.Sprintf("seed %d (%d stages)", seed, stages))
		skipped += d.prod.skipped
		afterWait += d.prod.Stats().AdmittedAfterWait
	}
	t.Logf("%d scans skipped, %d admissions after waiting", skipped, afterWait)
	if skipped == 0 || afterWait == 0 {
		t.Fatalf("skipped %d scans and admitted %d after waiting; both paths must be exercised", skipped, afterWait)
	}
}

// TestWaitQueueDifferentialCustomEstimator repeats the differential run
// under a custom estimator, which must take the full-scan path.
func TestWaitQueueDifferentialCustomEstimator(t *testing.T) {
	inflate := func(tk *task.Task, stage int) float64 { return 1.25 * tk.StageDemand(stage) }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stages := 1 + rng.Intn(4)
		d := newChainDiff(stages, nil, 0.05+rng.Float64()*0.4, inflate)
		d.run(rng, 1500)
		d.check(t, fmt.Sprintf("seed %d (%d stages)", seed, stages))
		if d.prod.skipped != 0 {
			t.Fatalf("seed %d: %d scans skipped under a custom estimator, want 0", seed, d.prod.skipped)
		}
	}
}

// TestGraphWaitQueueDifferential runs the same comparison over the
// Theorem 2 controller: arrivals of a few DAG shapes, clock advances,
// and resource idle resets.
func TestGraphWaitQueueDifferential(t *testing.T) {
	shapes := func() []*task.Graph {
		fork := task.NewGraph()
		a := fork.AddNode(0, task.NewSubtask(0.02))
		b := fork.AddNode(1, task.NewSubtask(0.05))
		c := fork.AddNode(2, task.NewSubtask(0.03))
		e := fork.AddNode(0, task.NewSubtask(0))
		fork.AddEdge(a, b)
		fork.AddEdge(a, c)
		fork.AddEdge(b, e)
		fork.AddEdge(c, e)
		return []*task.Graph{fork, task.ChainGraph(0.04, 0, 0.02), task.ChainGraph(0.01, 0.06)}
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxWait := 0.05 + rng.Float64()*0.3
		type side struct {
			sim    *des.Simulator
			c      *GraphController
			submit func(*task.Task)
			stream admitted
			shapes []*task.Graph
		}
		mk := func() *side {
			s := &side{sim: des.New(), shapes: shapes()}
			s.c = NewGraphController(s.sim, 3, 1, nil)
			return s
		}
		a, b := mk(), mk()
		prod := NewGraphWaitQueue(a.sim, a.c, maxWait, record(&a.stream))
		ref := newRefWaitQueue(b.sim, b.c, maxWait, record(&b.stream))
		a.submit, b.submit = prod.Submit, ref.Submit
		both := func(op func(s *side)) { op(a); op(b) }
		var id task.ID
		for i := 0; i < 1000; i++ {
			switch r := rng.Float64(); {
			case r < 0.5:
				id++
				k, dl, arrivalID := rng.Intn(3), 0.1+rng.Float64(), id
				both(func(s *side) {
					s.submit(&task.Task{ID: arrivalID, Arrival: s.sim.Now(), Deadline: dl, Graph: s.shapes[k]})
				})
			case r < 0.85:
				dt := rng.ExpFloat64() * 0.03
				both(func(s *side) { s.sim.RunUntil(s.sim.Now() + dt) })
			default:
				if id == 0 {
					continue
				}
				res, victim := rng.Intn(3), task.ID(1+rng.Int63n(int64(id)))
				both(func(s *side) {
					s.c.MarkDeparted(res, victim)
					s.c.HandleResourceIdle(res)
				})
			}
		}
		both(func(s *side) { s.sim.Run() })
		if a.stream.String() != b.stream.String() {
			t.Fatalf("seed %d: admitted streams differ\nprod %v\nref  %v", seed, a.stream, b.stream)
		}
		if prod.Stats() != ref.stats || a.c.Stats() != b.c.Stats() || a.sim.Steps() != b.sim.Steps() {
			t.Fatalf("seed %d: stats %+v/%+v events %d, reference %+v/%+v events %d", seed,
				prod.Stats(), a.c.Stats(), a.sim.Steps(), ref.stats, b.c.Stats(), b.sim.Steps())
		}
		if prod.Stats().AdmittedAfterWait == 0 && seed == 1 {
			t.Fatalf("seed 1 admitted nothing after waiting; the retry path is not exercised")
		}
	}
}
