package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/genscen"
	"repro/internal/model"
	"repro/internal/serve"
)

// workload is one named traffic mix: the HTTP round trip one op is, the
// input properties that matter to the system, why it is in the
// benchmark, and how its inputs are drawn from the seed.
type workload struct {
	Name   string
	Op     string
	Inputs string
	Why    string
	// OpsPerSecond fixes the op count: a run issues OpsPerSecond ×
	// --seconds ops whatever the commit's speed, so a faster commit does
	// the same work and memo-cache growth stays comparable. serve-repeat's
	// rate is a little below its measured one, so its timed phases fill
	// most of --seconds; serve-fresh and fleet-stream grow each epoch's
	// memo cache with every op, so their rates bound that growth, and
	// their timed phases end well before.
	OpsPerSecond float64
	// Samples is how many of the first epoch's ops the traced phase
	// replays down the ladder.
	Samples int
	build   func(seed uint64, lo, hi int) (*plan, error)
}

// request is one HTTP round trip of a workload.
type request struct {
	path   string
	tenant string
	body   []byte
	// pair indexes the (scenario, tenant) pair of a serve-repeat request;
	// -1 elsewhere.
	pair int
}

// plan is a workload's generated input for ops [lo, hi) of a run: set-up
// requests sent before the clock starts, and those timed ops.
type plan struct {
	warm []request
	ops  []request
}

var workloads = []*workload{
	{
		Name:   "serve-fresh",
		Op:     "POST /v1/schedule",
		Inputs: "every request a distinct genscen scenario (amdahl-mix, cache-bound, latency-dominated; 2-8 apps, own platform); 4 tenants round-robin",
		Why: "every request misses the memo, so the 12-heuristic race dominates; shows heuristic, race-pool and cache-insert gains " +
			"and the memory the unbounded cache costs",
		OpsPerSecond: 1800,
		Samples:      1000,
		build:        buildFresh,
	},
	{
		Name:   "serve-repeat",
		Op:     "POST /v1/schedule",
		Inputs: "a hot set of 64 scenarios x 4 tenants, all warmed in set-up, so every timed request is a memo hit",
		Why: "sched does nothing: HTTP transport, JSON codec, admission, metrics and the memo lookup are the whole cost; " +
			"the reads-beside-writes twin of serve-fresh",
		OpsPerSecond: 7000,
		Samples:      2000,
		build:        buildRepeat,
	},
	{
		Name:   "fleet-stream",
		Op:     "POST /v1/simulate-fleet",
		Inputs: "16 nodes of 3 platform shapes, portfolio policies, maxResident 4, a 1024-job Poisson stream with part-time FIFO queues; the 4 routers in turn",
		Why: "the only traffic through des and fleet: per-arrival node advancement and scoring, the plan-memo fast path, " +
			"full portfolio races on residual workloads",
		OpsPerSecond: 14,
		Samples:      30,
		build:        buildFleet,
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
}

// tenants are the X-Tenant values the schedule workloads use round-robin.
var tenants = []string{"tenant-a", "tenant-b", "tenant-c", "tenant-d"}

// scheduleFamilies are the genscen families the schedule workloads
// rotate through.
var scheduleFamilies = []genscen.Family{genscen.AmdahlMix, genscen.CacheBound, genscen.LatencyDominated}

// Salts separate the input streams drawn from one workload seed.
const (
	freshSalt = 0x5eed0001
	warmSalt  = 0x5eed0002
	hotSalt   = 0x5eed0003
	fleetSalt = 0x5eed0004
	fleetWarm = 0x5eed0005
)

const (
	repeatHot  = 64 // serve-repeat's hot set size
	fleetNodes = 16
	fleetJobs  = 1024
	// fleetRate puts the nodes' FIFO queues in use part of the time, so
	// node policies take both the plan-memo fast path and full races.
	fleetRate = 3.5e-8
)

// mix derives the i-th input seed of a stream (SplitMix64 finalizer).
func mix(seed uint64, salt, i uint64) uint64 {
	z := seed ^ salt*0x9E3779B97F4A7C15 ^ (i+1)*0xBF58476D1CE4E5B9
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// scenarioBody draws the i-th schedule scenario of a stream: the family
// and app count rotate deterministically (so every seed has the same
// size mix), the values come from the seed.
func scenarioBody(seed uint64, salt, i uint64) ([]byte, error) {
	fam := scheduleFamilies[i%uint64(len(scheduleFamilies))]
	n := 2 + int(i/uint64(len(scheduleFamilies))%7)
	in, err := genscen.Generate(fam, mix(seed, salt, i), genscen.Config{MinApps: n, MaxApps: n})
	if err != nil {
		return nil, err
	}
	sw := serve.ScenarioWire{Platform: platformSpec(in.Platform)}
	for _, a := range in.Apps {
		sw.Apps = append(sw.Apps, des.AppSpec{
			Name: a.Name, Work: a.Work, Seq: a.SeqFraction, Freq: a.AccessFreq,
			MissRate: a.RefMissRate, RefCache: a.RefCacheSize, Footprint: a.Footprint,
		})
	}
	return json.Marshal(sw)
}

func platformSpec(pl model.Platform) *des.PlatformSpec {
	return &des.PlatformSpec{Processors: pl.Processors, CacheSize: pl.CacheSize, LatencyS: pl.LatencyS, LatencyL: pl.LatencyL, Alpha: pl.Alpha}
}

func scheduleRequest(body []byte, i int) request {
	return request{path: "/v1/schedule", tenant: tenants[i%len(tenants)], body: body, pair: -1}
}

// buildFresh: distinct scenarios, plus 64 warm-up scenarios from their
// own stream so the timed ones stay unseen.
func buildFresh(seed uint64, lo, hi int) (*plan, error) {
	p := &plan{}
	for i := 0; i < 64; i++ {
		b, err := scenarioBody(seed, warmSalt, uint64(i))
		if err != nil {
			return nil, err
		}
		p.warm = append(p.warm, scheduleRequest(b, i))
	}
	var err error
	p.ops, err = generate(lo, hi, func(i int) (request, error) {
		b, err := scenarioBody(seed, freshSalt, uint64(i))
		return scheduleRequest(b, i), err
	})
	return p, err
}

// buildRepeat: the hot set's (scenario, tenant) pairs are the set-up
// requests; op i is pair i mod 256, tenants in turn.
func buildRepeat(seed uint64, lo, hi int) (*plan, error) {
	p := &plan{}
	hot := make([][]byte, repeatHot)
	for j := range hot {
		b, err := scenarioBody(seed, hotSalt, uint64(j))
		if err != nil {
			return nil, err
		}
		hot[j] = b
	}
	pairs := repeatHot * len(tenants)
	at := func(i int) request {
		k := i % pairs
		r := scheduleRequest(hot[k/len(tenants)], k)
		r.pair = k
		return r
	}
	for k := 0; k < pairs; k++ {
		p.warm = append(p.warm, at(k))
	}
	for i := lo; i < hi; i++ {
		p.ops = append(p.ops, at(i))
	}
	return p, nil
}

// fleetShapes are the node platforms of fleet-stream, assigned to nodes
// in turn: the paper's TaihuLight node, a half-size node with a quarter
// of its cache, and a double-size node with half its cache.
var fleetShapes = func() []des.PlatformSpec {
	tl := model.TaihuLight()
	half, double := tl, tl
	half.Processors, half.CacheSize = tl.Processors/2, tl.CacheSize/4
	double.Processors, double.CacheSize = tl.Processors*2, tl.CacheSize/2
	return []des.PlatformSpec{*platformSpec(tl), *platformSpec(half), *platformSpec(double)}
}()

func fleetBody(seed uint64, salt, i uint64) ([]byte, error) {
	nodes := make([]fleet.NodeSpec, fleetNodes)
	for k := range nodes {
		pl := fleetShapes[k%len(fleetShapes)]
		nodes[k] = fleet.NodeSpec{Platform: &pl, Policy: "portfolio", MaxResident: 4}
	}
	sp := fleet.Spec{
		Nodes:    nodes,
		Routing:  fleet.Routings[i%uint64(len(fleet.Routings))],
		Arrivals: des.ArrivalSpec{Process: "poisson", Rate: fleetRate, N: fleetJobs},
		// A zero seed would defer to the tenant seed; keep it explicit.
		Seed: mix(seed, salt, i) | 1,
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(sp)
}

func buildFleet(seed uint64, lo, hi int) (*plan, error) {
	p := &plan{}
	for i := 0; i < 2; i++ {
		b, err := fleetBody(seed, fleetWarm, uint64(i))
		if err != nil {
			return nil, err
		}
		p.warm = append(p.warm, request{path: "/v1/simulate-fleet", body: b, pair: -1})
	}
	var err error
	p.ops, err = generate(lo, hi, func(i int) (request, error) {
		b, err := fleetBody(seed, fleetSalt, uint64(i))
		return request{path: "/v1/simulate-fleet", body: b, pair: -1}, err
	})
	return p, err
}

// generate draws ops [lo, hi) of a stream on every P: input generation
// is part of setup_s, and spreading it over both CPUs of the reference
// VM keeps one CPU's slow spell from doubling a set-up.
func generate(lo, hi int, gen func(i int) (request, error)) ([]request, error) {
	ops := make([]request, hi-lo)
	errs := forEach(len(ops), func(j int) (err error) {
		ops[j], err = gen(lo + j)
		return err
	})
	return ops, errors.Join(errs...)
}
