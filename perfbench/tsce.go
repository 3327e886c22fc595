package main

import (
	"fmt"
	"math"
	"strings"

	"feasregion/internal/des"
	"feasregion/internal/dist"
	"feasregion/internal/pipeline"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// tsceHold is the §5 TSCE mission system: the reserved critical streams
// run against their certified floor while Target Tracking tasks are
// admitted through the 200 ms wait queue. At 650 tracks, past the
// 550-track capacity, most tracking tasks are held and re-tested on
// every utilization release.
//
// A pass simulates several independent missions, each with its own track
// phases drawn from the seed: how much rescanning a mission needs
// depends on how its track phases cluster, and summing missions keeps
// that from making one seed much slower than another.
type tsceHold struct {
	missions int
	tracks   int
	horizon  float64
}

func newTSCEHold(toy bool) *tsceHold {
	if toy {
		return &tsceHold{missions: 2, tracks: 650, horizon: 2}
	}
	return &tsceHold{missions: 8, tracks: 650, horizon: 10}
}

type tscePass struct {
	missions []*mission
	genS     float64
}

// mission is one simulated TSCE system.
type mission struct {
	sim *des.Simulator
	p   *pipeline.Pipeline

	offered  uint64
	injected uint64
	// Wait-queue release accounting, from the OnRelease hook the
	// benchmark registers after the queue's own.
	releases         uint64
	pendingAtRelease uint64
	lastAfterWait    uint64
}

func (w *tsceHold) setup(seed int64, m *meter) (passRunner, error) {
	tp := &tscePass{}
	seeds := dist.NewRNG(seed)
	for k := 0; k < w.missions; k++ {
		tp.missions = append(tp.missions, w.newMission(seeds.Int63(), m, &tp.genS))
	}
	return tp, nil
}

func (w *tsceHold) newMission(seed int64, m *meter, genS *float64) *mission {
	ms := &mission{sim: des.New()}
	scenario := workload.NewTSCE()
	m.call(spPipelineNew, func() {
		ms.p = pipeline.New(ms.sim, pipeline.Options{
			Stages:   3,
			Reserved: scenario.ReservedUtilization(),
			MaxWait:  scenario.AdmissionHold,
		})
	})
	wq := ms.p.WaitQueue()
	ms.p.Controller().OnRelease(func(des.Time) {
		after := wq.Stats().AdmittedAfterWait
		ms.releases++
		ms.pendingAtRelease += uint64(wq.PendingLen()) + after - ms.lastAfterWait
		ms.lastAfterWait = after
	})

	offer := func(t *task.Task) {
		ms.offered++
		before := wq.Stats().AdmittedImmediately
		s := now()
		ms.p.Offer(t)
		m.decision(spPipelineOffer, s, now(), wq.Stats().AdmittedImmediately != before)
	}
	inject := func(t *task.Task) {
		ms.injected++
		m.call(spPipelineInject, func() { ms.p.Inject(t) })
	}
	rng := dist.NewRNG(seed)
	var id task.ID
	s := now()
	m.call(spWorkloadSchedule, func() {
		scenario.ScheduleReserved(ms.sim, rng, w.horizon, &id, inject)
		scenario.ScheduleTracking(ms.sim, rng, w.tracks, w.horizon, &id, offer)
	})
	*genS += float64(now()-s) / 1e9
	ms.p.BeginMeasurement()
	return ms
}

func (tp *tscePass) run(m *meter) passResult {
	res := passResult{genS: tp.genS, counters: map[string]float64{}}
	prints := make([]string, len(tp.missions))
	for k, ms := range tp.missions {
		m.begin(spDesRun)
		ms.sim.Run()
		m.end()
		prints[k] = ms.check(&res)
	}
	// Every simulated statistic is a pure function of the seed; the
	// fingerprint carries the exact bits so passes and runs compare equal.
	res.fingerprint = strings.Join(prints, " | ")
	for j := 1; j <= 3; j++ {
		k := fmt.Sprintf("sched.util.stage%d", j)
		res.counters[k] /= float64(len(tp.missions))
	}
	return res
}

// check adds the mission's counters to res, applies its gates, and
// returns its fingerprint.
func (ms *mission) check(res *passResult) string {
	snap := ms.p.Snapshot()
	ws := ms.p.WaitQueue().Stats()
	cs := ms.p.Controller().Stats()
	res.offered += ms.offered
	res.admitted += ws.AdmittedImmediately + ws.AdmittedAfterWait
	res.missed += snap.Missed
	for k, v := range map[string]float64{
		"des.events":                          float64(ms.sim.Steps()),
		"workload.records":                    float64(ms.offered + ms.injected),
		"core.admitted":                       float64(cs.Admitted),
		"core.rejected":                       float64(cs.Rejected),
		"core.waitqueue.admitted_immediately": float64(ws.AdmittedImmediately),
		"core.waitqueue.admitted_after_wait":  float64(ws.AdmittedAfterWait),
		"core.waitqueue.timed_out":            float64(ws.TimedOut),
		"core.waitqueue.releases":             float64(ms.releases),
		"core.waitqueue.pending_at_release":   float64(ms.pendingAtRelease),
		"pipeline.offered":                    float64(snap.Offered),
		"pipeline.completed":                  float64(snap.Completed),
		"pipeline.missed":                     float64(snap.Missed),
	} {
		res.counters[k] += v
	}
	for j := 0; j < ms.p.Stages(); j++ {
		st := ms.p.Stage(j).Stats()
		res.counters["sched.submitted"] += float64(st.Submitted)
		res.counters["sched.completed"] += float64(st.Completed)
		res.counters["sched.preemptions"] += float64(st.Preemptions)
		res.counters["sched.busy_periods"] += float64(st.BusyPeriods)
		res.counters[fmt.Sprintf("sched.util.stage%d", j+1)] += snap.StageUtilization[j]
	}
	if ws.AdmittedImmediately+ws.AdmittedAfterWait+ws.TimedOut != ms.offered {
		res.fail(fmt.Sprintf("wait queue outcomes %d+%d+%d != %d offered",
			ws.AdmittedImmediately, ws.AdmittedAfterWait, ws.TimedOut, ms.offered))
	}
	if snap.Missed > 0 {
		res.fail(fmt.Sprintf("%d admitted tasks missed their end-to-end deadline", snap.Missed))
	}
	return fmt.Sprintf("offered=%d wq=%d/%d/%d releases=%d pending=%d events=%d util=%x/%x/%x",
		ms.offered, ws.AdmittedImmediately, ws.AdmittedAfterWait, ws.TimedOut,
		ms.releases, ms.pendingAtRelease, ms.sim.Steps(),
		math.Float64bits(snap.StageUtilization[0]), math.Float64bits(snap.StageUtilization[1]),
		math.Float64bits(snap.StageUtilization[2]))
}
