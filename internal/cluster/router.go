package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"feasregion/internal/online"
)

// Policy selects how the router places an arriving request on a
// replica.
type Policy int

// Routing policies.
const (
	// RoundRobin rotates placements over the active replicas in ID
	// order, blind to load. One admission attempt per request.
	RoundRobin Policy = iota
	// HeadroomGreedy scans every active replica's published headroom
	// and tries the richest first, rolling back to the runner-up when
	// the first admit races to a reject. Ties break toward the earlier
	// (lower-ID) replica.
	HeadroomGreedy
	// PowerOfTwo probes two distinct seeded-random replicas, tries the
	// one with more published headroom, and rolls back to the other
	// when the first admit races to a reject. Equal headroom breaks
	// toward the first probe. O(1) per placement, no scan.
	PowerOfTwo
)

// String returns the policy's canonical flag name.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case HeadroomGreedy:
		return "headroom-greedy"
	case PowerOfTwo:
		return "p2c"
	default:
		return "unknown"
	}
}

// Policies lists all routing policies in comparison order.
var Policies = []Policy{RoundRobin, HeadroomGreedy, PowerOfTwo}

// RouterStats counts routing outcomes.
type RouterStats struct {
	// Placed counts every placed request, whichever candidate admitted
	// it. Rollbacks is the subset of Placed admitted only by the second
	// choice after the first's admit raced to a reject.
	Placed    uint64
	Rollbacks uint64
	// Rejected counts requests no candidate replica would admit.
	Rejected uint64
}

// Router places arriving requests on replicas chosen by its policy.
// The active-replica set is a copy-on-write slice swapped atomically,
// so the placement hot path is lock-free and allocation-free; set
// mutations (replicas joining, draining) serialize on an internal
// mutex and publish a fresh slice.
type Router struct {
	policy Policy

	set atomic.Pointer[[]*Replica]
	mu  sync.Mutex // serializes SetReplicas copy-on-write swaps

	rr  atomic.Uint64 // round-robin cursor
	rng atomic.Uint64 // splitmix64 state for the p2c probes

	placed    atomic.Uint64
	rollbacks atomic.Uint64
	rejected  atomic.Uint64
}

// NewRouter builds a router for the policy. seed determines the p2c
// probe sequence (any value is fine; equal seeds give identical probe
// sequences for deterministic tests).
func NewRouter(policy Policy, seed uint64) *Router {
	if policy != RoundRobin && policy != HeadroomGreedy && policy != PowerOfTwo {
		panic(fmt.Sprintf("cluster: unknown routing policy %d", int(policy)))
	}
	r := &Router{policy: policy}
	r.rng.Store(seed)
	empty := []*Replica{}
	r.set.Store(&empty)
	return r
}

// Policy returns the router's placement policy.
func (r *Router) Policy() Policy { return r.policy }

// SetReplicas publishes a new active-replica set. The slice is copied;
// callers pass the replicas eligible for placement (Active state) in ID
// order, which is also the tie-break and round-robin order.
func (r *Router) SetReplicas(reps []*Replica) {
	cp := make([]*Replica, len(reps))
	copy(cp, reps)
	r.mu.Lock()
	r.set.Store(&cp)
	r.mu.Unlock()
}

// Replicas returns a copy of the current active-replica set.
func (r *Router) Replicas() []*Replica {
	cur := *r.set.Load()
	return append([]*Replica(nil), cur...)
}

// splitmix64 advances the probe RNG one step and returns a mixed word.
// The atomic add keeps concurrent routers race-free while a fixed seed
// keeps single-threaded tests deterministic.
func (r *Router) splitmix64() uint64 {
	x := r.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// pick fills cand (capacity ≥ 2) with up to two candidate replicas in
// preference order per the policy and returns how many it chose. It
// performs no admission and does not allocate.
func (r *Router) pick(set []*Replica, cand *[2]*Replica) int {
	n := len(set)
	if n == 0 {
		return 0
	}
	if n == 1 {
		cand[0] = set[0]
		return 1
	}
	switch r.policy {
	case RoundRobin:
		cand[0] = set[(r.rr.Add(1)-1)%uint64(n)]
		return 1
	case HeadroomGreedy:
		best, second := 0, -1
		bh := set[0].Headroom()
		var sh float64
		for i := 1; i < n; i++ {
			h := set[i].Headroom()
			switch {
			case h > bh:
				second, sh = best, bh
				best, bh = i, h
			case second < 0 || h > sh:
				second, sh = i, h
			}
		}
		cand[0] = set[best]
		cand[1] = set[second]
		return 2
	default: // PowerOfTwo
		w := r.splitmix64()
		i := int(w % uint64(n))
		j := (i + 1 + int((w>>32)%uint64(n-1))) % n
		if set[j].Headroom() > set[i].Headroom() {
			i, j = j, i
		}
		cand[0] = set[i]
		cand[1] = set[j]
		return 2
	}
}

// Route places the request: the policy nominates up to two candidates,
// the first is tried, and — for the headroom-aware policies — a reject
// that raced the published snapshot rolls the placement back to the
// second choice. It returns the replica that admitted the request, or
// nil and false when every candidate refused. The hot path takes no
// locks and performs no allocations.
func (r *Router) Route(req online.Request) (*Replica, bool) {
	set := *r.set.Load()
	var cand [2]*Replica
	k := r.pick(set, &cand)
	for i := 0; i < k; i++ {
		if cand[i].TryAdmit(req) {
			r.placed.Add(1)
			if i > 0 {
				r.rollbacks.Add(1)
			}
			return cand[i], true
		}
	}
	r.rejected.Add(1)
	return nil, false
}

// Candidates fills buf with the policy's current candidate replicas in
// preference order and returns how many it chose, without admitting —
// for integrations (e.g. the simulated cluster pipeline) that run
// admission through their own task-shaped path and implement the
// rollback themselves. buf must hold at least two entries.
func (r *Router) Candidates(buf []*Replica) int {
	if len(buf) < 2 {
		panic(fmt.Sprintf("cluster: candidate buffer of %d needs at least 2 entries", len(buf)))
	}
	var cand [2]*Replica
	k := r.pick(*r.set.Load(), &cand)
	copy(buf, cand[:k])
	return k
}

// CountPlaced records an externally performed placement outcome —
// the bookkeeping mirror of Route for Candidates-based integrations.
// rollback marks a placement that succeeded only on the second
// candidate.
func (r *Router) CountPlaced(rollback bool) {
	r.placed.Add(1)
	if rollback {
		r.rollbacks.Add(1)
	}
}

// CountRejected records an externally observed all-candidates reject.
func (r *Router) CountRejected() { r.rejected.Add(1) }

// Stats returns a snapshot of the routing counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Placed:    r.placed.Load(),
		Rollbacks: r.rollbacks.Load(),
		Rejected:  r.rejected.Load(),
	}
}
