package main

import (
	"bytes"
	"fmt"
	"math"

	"feasregion/internal/core"
	"feasregion/internal/des"
	"feasregion/internal/task"
	"feasregion/internal/workload"
)

// replayDiurnal records the `-run replay` diurnal scenario (3 stages) to
// an in-memory FRTRACE trace during set-up, then streams it through
// workload.Replayer into a bare core.Controller at 4× the recorded
// arrival rate. No scheduler, pipeline or wait queue is involved.
type replayDiurnal struct {
	records uint64
}

func newReplayDiurnal(toy bool) *replayDiurnal {
	if toy {
		return &replayDiurnal{records: 20_000}
	}
	return &replayDiurnal{records: 300_000}
}

// replayRate is the replayer's RateMultiplier: arrivals come 4× faster
// than recorded while deadlines and demands stay as recorded, which puts
// the controller past saturation so it both admits and rejects.
const replayRate = 4

// scenario is the diurnal scenario of the replay experiment
// (internal/experiments/replay.go), sized to about n arrivals: one
// modulated day with a flash crowd, then a steady tail.
func (w *replayDiurnal) scenario(seed int64) *workload.Scenario {
	const day = 1e4
	horizon := 1.02 * float64(w.records) / 0.3
	if horizon < 4*day {
		horizon = 4 * day
	}
	return &workload.Scenario{
		Stages:     3,
		MeanDemand: 1.0 / 3,
		Curve: []workload.RatePoint{
			{At: 0, Rate: 0.3},
			{At: day / 2, Rate: 0.7},
			{At: day, Rate: 0.3},
		},
		Cohorts: []workload.Cohort{
			{Name: "interactive", Share: 0.6, DemandScale: 0.7, Resolution: 120},
			{Name: "batch", Share: 0.3, DemandScale: 1.5, Resolution: 400},
			{Name: "control", Share: 0.1, DemandScale: 0.4, Resolution: 40},
		},
		Crowds: []workload.FlashCrowd{
			{Start: day / 4, Duration: day / 20, Multiplier: 1.8},
		},
		Horizon: horizon,
		Seed:    seed,
	}
}

type replayPass struct {
	sim      *des.Simulator
	ctl      *core.Controller
	rp       *workload.Replayer
	recorded uint64
	genS     float64

	admitted uint64
	digest   uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func (w *replayDiurnal) setup(seed int64, m *meter) (passRunner, error) {
	rp := &replayPass{digest: fnvOffset}
	var buf bytes.Buffer
	var err error
	s := now()
	m.call(spWorkloadRecord, func() { rp.recorded, err = w.scenario(seed).RecordTrace(&buf) })
	rp.genS = float64(now()-s) / 1e9
	if err != nil {
		return nil, fmt.Errorf("recording trace: %w", err)
	}
	var tr *workload.TraceReader
	m.call(spWorkloadOpen, func() { tr, err = workload.OpenTrace(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		return nil, fmt.Errorf("opening trace: %w", err)
	}
	rp.sim = des.New()
	m.call(spCoreNew, func() { rp.ctl = core.NewController(rp.sim, core.NewRegion(tr.Stages()), nil) })
	offer := func(t *task.Task) {
		s := now()
		ok := rp.ctl.TryAdmit(t)
		m.decision(spCoreTryAdmit, s, now(), ok)
		d := uint64(0)
		if ok {
			d = 1
			rp.admitted++
		}
		rp.digest = fnvFold(rp.digest, uint64(t.ID)<<1|d)
		rp.digest = fnvFold(rp.digest, math.Float64bits(t.Arrival))
	}
	rp.rp, err = workload.NewReplayer(rp.sim, tr, workload.ReplayOptions{
		RateMultiplier: replayRate,
		ReuseTask:      true, // the controller does not retain the task
	}, offer)
	if err != nil {
		return nil, fmt.Errorf("building replayer: %w", err)
	}
	return rp, nil
}

func (rp *replayPass) run(m *meter) passResult {
	var res passResult
	m.begin(spDesRun)
	err := rp.rp.Start()
	if err == nil {
		rp.sim.Run()
		err = rp.rp.Err()
	}
	m.end()
	replayed := rp.rp.Replayed()
	res.offered = replayed
	res.admitted = rp.admitted
	res.genS = rp.genS
	if err != nil {
		res.fail(fmt.Sprintf("replay: %v", err))
	}
	if replayed != rp.recorded {
		res.fail(fmt.Sprintf("replayed %d of %d recorded records", replayed, rp.recorded))
	}
	cs := rp.ctl.Stats()
	if cs.Admitted != rp.admitted || cs.Admitted+cs.Rejected != replayed {
		res.fail(fmt.Sprintf("controller counted %d admitted + %d rejected for %d offers (%d admitted seen)",
			cs.Admitted, cs.Rejected, replayed, rp.admitted))
	}
	for j := 0; j < 3; j++ {
		if u := rp.ctl.Ledger(j).Utilization(); u != 0 {
			res.fail(fmt.Sprintf("stage %d synthetic utilization %g after every deadline passed", j+1, u))
		}
	}
	rp.digest = fnvFold(rp.digest, math.Float64bits(float64(rp.sim.Now())))
	res.fingerprint = fmt.Sprintf("records=%d admitted=%d events=%d digest=%016x",
		replayed, rp.admitted, rp.sim.Steps(), rp.digest)
	res.counters = map[string]float64{
		"des.events":       float64(rp.sim.Steps()),
		"workload.records": float64(replayed),
		"core.admitted":    float64(cs.Admitted),
		"core.rejected":    float64(cs.Rejected),
	}
	return res
}
