package main

import (
	"fmt"
	"math"
	"time"

	"feasregion/internal/cluster"
	"feasregion/internal/core"
	"feasregion/internal/dist"
	"feasregion/internal/online"
)

// serveP2C is a wall-clock serving caller: one goroutine routes
// pre-generated requests through cluster.Cluster.Route on a fixed fleet
// of default-config replicas with power-of-two-choices routing, and
// releases each admitted request after its work. It is a closed loop:
// like a production caller, it invokes admission inline and waits for
// the answer before the next request.
type serveP2C struct {
	requests int
}

func newServeP2C(toy bool) *serveP2C {
	if toy {
		return &serveP2C{requests: 5_000}
	}
	return &serveP2C{requests: 120_000}
}

const (
	serveReplicas = 4
	serveStages   = 3
	// Load alternates every servePhase between serveLow and serveHigh
	// times the fleet's capacity, so admits and rejects both run.
	servePhase = 50 * time.Millisecond
	serveLow   = 0.6
	serveHigh  = 2.0
	// Deadlines are uniform in [serveMinDeadline, serveMaxDeadline]; each
	// stage's demand is a uniform share in [0.001, 0.007] of the deadline.
	serveMinDeadline = 20 * time.Millisecond
	serveMaxDeadline = 100 * time.Millisecond
	serveMinShare    = 0.001
	serveMaxShare    = 0.007
	// An admitted request is released serveHold after it was admitted,
	// before its deadline, except every serveKeepEvery-th, which is never
	// released and expires through the controller's timer wheel.
	serveHold      = 10 * time.Millisecond
	serveKeepEvery = 10
	// serveSlack is how far past the last deadline the schedule clock
	// moves before every replica must be empty: the expiry wheel purges
	// up to one 1 ms bucket late.
	serveSlack = 2 * time.Millisecond
)

// fleetCapacity is the arrival rate (1/s) at which the fleet's
// synthetic utilization settles on the region bound: each stage sits at
// U* with serveStages·f(U*) = 1, and by Little's law a replica then
// carries U* / (E[C/D] · E[lifetime]) requests per second.
func fleetCapacity() float64 {
	lo, hi := 0.0, 1.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if serveStages*core.StageDelayFactor(mid) > 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	meanShare := (serveMinShare + serveMaxShare) / 2
	meanDeadline := (serveMinDeadline + serveMaxDeadline).Seconds() / 2
	keep := 1.0 / serveKeepEvery
	life := (1-keep)*serveHold.Seconds() + keep*meanDeadline
	return serveReplicas * lo / (meanShare * life)
}

// schedClock is the replicas' clock. It returns the current request's
// scheduled time, so every decision is a pure function of the seed, but
// it still reads the real clock once so that cost stays measured.
type schedClock struct {
	base time.Time
	at   time.Duration
	real time.Time
}

func (c *schedClock) now() time.Time {
	c.real = time.Now()
	return c.base.Add(c.at)
}

type release struct {
	at  time.Duration
	rep *cluster.Replica
	id  uint64
}

type servePass struct {
	arrivals []time.Duration
	reqs     []online.Request
	clock    *schedClock
	c        *cluster.Cluster
	region   core.Region
}

func (w *serveP2C) setup(seed int64, m *meter) (passRunner, error) {
	sp := &servePass{
		arrivals: make([]time.Duration, w.requests),
		reqs:     make([]online.Request, w.requests),
		clock:    &schedClock{base: time.Unix(1_000_000_000, 0)},
		region:   core.NewRegion(serveStages),
	}
	rng := dist.NewRNG(seed)
	demands := make([]time.Duration, w.requests*serveStages)
	capacity := fleetCapacity()
	var at float64 // seconds
	phase := 0
	for i := range sp.reqs {
		// Exponential gaps at the current phase's rate; a gap that crosses
		// a phase boundary restarts from the boundary at the new rate.
		for {
			rate := serveLow * capacity
			if phase%2 == 1 {
				rate = serveHigh * capacity
			}
			next := at + rng.ExpFloat64()/rate
			end := float64(phase+1) * servePhase.Seconds()
			if next < end {
				at = next
				break
			}
			at = end
			phase++
		}
		sp.arrivals[i] = time.Duration(at * 1e9)
		d := serveMinDeadline + time.Duration(rng.Float64()*float64(serveMaxDeadline-serveMinDeadline))
		dem := demands[i*serveStages : (i+1)*serveStages : (i+1)*serveStages]
		for j := range dem {
			share := serveMinShare + rng.Float64()*(serveMaxShare-serveMinShare)
			dem[j] = time.Duration(share * float64(d))
		}
		sp.reqs[i] = online.Request{ID: uint64(i + 1), Deadline: d, Demands: dem}
	}
	m.call(spClusterNew, func() {
		sp.c = cluster.New(cluster.Options{
			Region:  sp.region,
			Online:  online.Config{Clock: sp.clock.now},
			Policy:  cluster.PowerOfTwo,
			Seed:    uint64(seed),
			Initial: serveReplicas,
		})
	})
	return sp, nil
}

// checkRegion verifies Σ_j f(U_j) ≤ bound on every replica.
func (sp *servePass) checkRegion(res *passResult, at time.Duration) {
	for _, rep := range sp.c.Replicas() {
		ctl := rep.Controller()
		if v := sp.region.Value(ctl.Utilizations()); v > ctl.Bound()+1e-9 {
			res.fail(fmt.Sprintf("replica %d outside its region at %v: value %g > bound %g",
				rep.ID(), at, v, ctl.Bound()))
		}
	}
}

func (sp *servePass) run(m *meter) passResult {
	var res passResult
	pending := make([]release, 0, len(sp.reqs)) // FIFO: release times rise with arrivals
	head := 0
	nextPhase := servePhase
	var admitted, kept uint64
	var lastDeadline time.Duration
	digest := uint64(fnvOffset)
	for i := range sp.reqs {
		at := sp.arrivals[i]
		for {
			relDue := head < len(pending) && pending[head].at <= at
			if nextPhase <= at && (!relDue || nextPhase <= pending[head].at) {
				sp.clock.at = nextPhase
				m.begin(spGate)
				sp.checkRegion(&res, nextPhase)
				m.end()
				nextPhase += servePhase
				continue
			}
			if !relDue {
				break
			}
			r := pending[head]
			head++
			sp.clock.at = r.at
			m.call(spClusterRelease, func() { r.rep.Release(r.id) })
		}
		sp.clock.at = at
		req := sp.reqs[i]
		s := now()
		rep, ok := sp.c.Route(req)
		m.decision(spClusterRoute, s, now(), ok)
		v := req.ID << 1
		if ok {
			v |= 1
			digest = fnvFold(digest, uint64(rep.ID()))
			admitted++
			if dl := at + req.Deadline; dl > lastDeadline {
				lastDeadline = dl
			}
			if admitted%serveKeepEvery == 0 {
				kept++
			} else {
				pending = append(pending, release{at: at + serveHold, rep: rep, id: req.ID})
			}
		}
		digest = fnvFold(digest, v)
	}
	for ; head < len(pending); head++ {
		r := pending[head]
		sp.clock.at = r.at
		r.rep.Release(r.id)
	}

	// Past the last deadline every contribution has been released or has
	// expired, so every replica must be empty.
	sp.clock.at = lastDeadline + serveSlack
	var on online.Stats
	var placedByReplicas uint64
	for _, rep := range sp.c.Replicas() {
		for j, u := range rep.Controller().Utilizations() {
			if u != 0 {
				res.fail(fmt.Sprintf("replica %d stage %d keeps utilization %g past the last deadline", rep.ID(), j+1, u))
			}
		}
		st := rep.Controller().Stats()
		on.Admitted += st.Admitted
		on.Rejected += st.Rejected
		on.Expired += st.Expired
		on.Cancelled += st.Cancelled
		placedByReplicas += rep.Placed()
	}
	rs := sp.c.Stats().Router
	n := uint64(len(sp.reqs))
	// Router.Placed counts every admitted request, including those the
	// second choice admitted after a rollback (see cluster_test.go).
	if rs.Placed+rs.Rejected != n || rs.Rollbacks > rs.Placed {
		res.fail(fmt.Sprintf("router counted placed %d (rollbacks %d) + rejected %d for %d requests",
			rs.Placed, rs.Rollbacks, rs.Rejected, n))
	}
	if rs.Placed != admitted || placedByReplicas != admitted || on.Admitted != admitted {
		res.fail(fmt.Sprintf("admitted %d, router placed %d, replicas placed %d, controllers admitted %d",
			admitted, rs.Placed, placedByReplicas, on.Admitted))
	}
	if on.Expired != kept {
		res.fail(fmt.Sprintf("%d contributions expired, want the %d never released", on.Expired, kept))
	}

	res.offered = n
	res.admitted = admitted
	digest = fnvFold(digest, math.Float64bits(float64(kept)))
	res.fingerprint = fmt.Sprintf("requests=%d placed=%d rollbacks=%d rejected=%d expired=%d digest=%016x",
		n, rs.Placed, rs.Rollbacks, rs.Rejected, on.Expired, digest)
	res.counters = map[string]float64{
		"online.admitted":   float64(on.Admitted),
		"online.rejected":   float64(on.Rejected),
		"online.expired":    float64(on.Expired),
		"online.cancelled":  float64(on.Cancelled),
		"cluster.placed":    float64(rs.Placed),
		"cluster.rollbacks": float64(rs.Rollbacks),
		"cluster.rejected":  float64(rs.Rejected),
	}
	return res
}
