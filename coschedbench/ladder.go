package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"time"

	repro "repro"
	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/solve"
	"repro/internal/stats"
)

// span is one timed call down the ladder. Spans of one sampled request
// share Req; Parent names the rung that caused the call.
type span struct {
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Attr    string  `json:"attr,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// schedSample is one schedule request's ladder, in seconds.
type schedSample struct {
	rt, handler, race, race1 float64
	evals                    map[sched.Heuristic]float64
	evalSum, equalize        float64
}

// fleetSample is one fleet request's ladder, in seconds.
type fleetSample struct {
	rt, handler, fleetW, fleet1 float64
	nodeSum, allocSum           float64
	events, allocCalls, jobs    int
	imbalance                   float64
	replan                      des.ReplanStats
}

// ladder replays sampled requests down each layer's public entry points
// — serve.Server.ServeHTTP, Client.Evaluate, Heuristic.Schedule,
// sched.EqualizeAmdahl, fleet.Simulate, des.Simulate — on instances of
// its own, and records one span per call. The program itself carries no
// benchmark span or counter.
type ladder struct {
	srv   *serve.Server
	raceW *repro.Client // the service's worker count
	race1 *repro.Client

	mu        sync.Mutex
	start     time.Time
	spans     []span
	scheds    []schedSample
	fleets    []fleetSample
	allocDurs []float64
	fatal     error
}

// coschedClient builds a client the way cmd/coschedd does by default.
func coschedClient(workers int) *repro.Client {
	return repro.NewClient(repro.WithWorkers(workers), repro.WithCache(true), repro.WithMetrics(obs.NewRegistry()))
}

func newLadder() *ladder {
	reg := obs.NewRegistry()
	return &ladder{
		srv: serve.New(serve.Config{
			Client:      repro.NewClient(repro.WithCache(true), repro.WithMetrics(reg)),
			Registry:    reg,
			MaxInflight: 256,
			RetryAfter:  time.Second,
			BaseSeed:    serviceSeed,
		}),
		raceW: coschedClient(0),
		race1: coschedClient(1),
		start: time.Now(),
	}
}

// warm sends the workload's set-up requests through every rung instance,
// unrecorded, so the ladder sees the memo state the service does: warmed
// for serve-repeat, unseen inputs for serve-fresh.
func (l *ladder) warm(ctx context.Context, reqs []request) error {
	for i := range reqs {
		r := &reqs[i]
		if code, body := l.handle(r); code != http.StatusOK {
			return fmt.Errorf("ladder warm-up: %d %s", code, body)
		}
		if r.path != "/v1/schedule" {
			continue
		}
		sc, err := scenarioOf(r)
		if err != nil {
			return err
		}
		for _, c := range []*repro.Client{l.raceW, l.race1} {
			if _, err := c.Evaluate(ctx, sc); err != nil {
				return err
			}
		}
	}
	return nil
}

func (l *ladder) handle(r *request) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	if r.tenant != "" {
		req.Header.Set(serve.TenantHeader, r.tenant)
	}
	rec := httptest.NewRecorder()
	l.srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// timed runs f as one span of request req.
func (l *ladder) timed(req int, name, parent, attr string, f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	l.spans = append(l.spans, span{Req: req, Name: name, Parent: parent, Attr: attr,
		StartUS: float64(t0.Sub(l.start)) / 1e3, DurUS: float64(d) / 1e3})
	return d.Seconds(), err
}

// sample replays op i, whose live round trip took rt seconds and
// returned live, down the ladder. Ladders run one at a time. A ladder
// that cannot reproduce the live answer, or a node replay that diverges
// from the fleet's event log, is fatal: the run stops rather than print
// a wrong split.
func (l *ladder) sample(ctx context.Context, i int, r *request, rt float64, live []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fatal != nil {
		return l.fatal
	}
	l.spans = append(l.spans, span{Req: i, Name: "request", Attr: r.path,
		StartUS: float64(time.Since(l.start))/1e3 - rt*1e6, DurUS: rt * 1e6})
	var err error
	if r.path == "/v1/schedule" {
		err = l.schedule(ctx, i, r, rt, live)
	} else {
		err = l.fleet(ctx, i, r, rt, live)
	}
	if err != nil {
		l.fatal = fmt.Errorf("ladder: %w", err)
	}
	return l.fatal
}

func (l *ladder) handler(i int, r *request, live []byte) (float64, error) {
	var code int
	var body []byte
	d, _ := l.timed(i, "serve.handler", "request", "", func() error {
		code, body = l.handle(r)
		return nil
	})
	if code != http.StatusOK || !bytes.Equal(body, live) {
		return 0, fmt.Errorf("in-process handler answered %d %q, the service %q", code, body, live)
	}
	return d, nil
}

func (l *ladder) schedule(ctx context.Context, i int, r *request, rt float64, live []byte) error {
	s := schedSample{rt: rt, evals: map[sched.Heuristic]float64{}}
	var err error
	if s.handler, err = l.handler(i, r, live); err != nil {
		return err
	}
	sc, err := scenarioOf(r)
	if err != nil {
		return err
	}
	var rep *repro.PortfolioReport
	s.race, err = l.timed(i, "portfolio.race", "serve.handler", "workers="+strconv.Itoa(l.raceW.Workers()), func() (err error) {
		rep, err = l.raceW.Evaluate(ctx, sc)
		return err
	})
	if err != nil {
		return err
	}
	if s.race1, err = l.timed(i, "portfolio.race", "serve.handler", "workers=1", func() error {
		_, err := l.race1.Evaluate(ctx, sc)
		return err
	}); err != nil {
		return err
	}
	// The heuristics the race computed, each on its race-lane seed; a
	// memo hit ran none, so its rungs stop at the race.
	for hi, res := range rep.Results {
		if res.FromCache {
			continue
		}
		h := res.Heuristic
		var rng *solve.RNG
		if h.Randomized() {
			rng = solve.NewRNG(portfolio.HeuristicSeed(sc.Seed, hi))
		}
		var got *sched.Schedule
		d, err := l.timed(i, "sched.eval", "portfolio.race", h.String(), func() (err error) {
			got, err = h.Schedule(sc.Platform, sc.Apps, rng)
			return err
		})
		if (err == nil) != (res.Err == nil) || (err == nil && math.Float64bits(got.Makespan) != math.Float64bits(res.Schedule.Makespan)) {
			return fmt.Errorf("%s replay differs from its race lane", h)
		}
		s.evals[h] = d
		s.evalSum += d
	}
	if best := rep.BestResult(); best != nil && len(s.evals) > 0 {
		shares := make([]float64, len(sc.Apps))
		for k, a := range best.Schedule.Assignments {
			shares[k] = a.CacheShare
		}
		if s.equalize, err = l.timed(i, "solve.equalize", "sched.eval", best.Heuristic.String(), func() error {
			_, _, err := sched.EqualizeAmdahl(sc.Platform, sc.Apps, shares)
			return err
		}); err != nil {
			return err
		}
	}
	l.scheds = append(l.scheds, s)
	return nil
}

// timedPolicy wraps a node's online policy, timing every Allocate call
// as a des.allocate span and forwarding the policy's replan telemetry.
type timedPolicy struct {
	des.Policy
	l     *ladder
	req   int
	node  string
	calls int
	total float64
}

func (p *timedPolicy) Allocate(pl model.Platform, rs []des.Resident) ([]sched.Assignment, error) {
	var asg []sched.Assignment
	d, err := p.l.timed(p.req, "des.allocate", "des.node", p.node, func() (err error) {
		asg, err = p.Policy.Allocate(pl, rs)
		return err
	})
	p.calls++
	p.total += d
	p.l.allocDurs = append(p.l.allocDurs, d)
	return asg, err
}

func (p *timedPolicy) ReplanStats() des.ReplanStats {
	if r, ok := p.Policy.(des.ReplanReporter); ok {
		return r.ReplanStats()
	}
	return des.ReplanStats{}
}

func (l *ladder) fleet(ctx context.Context, i int, r *request, rt float64, live []byte) error {
	s := fleetSample{rt: rt}
	var err error
	if s.handler, err = l.handler(i, r, live); err != nil {
		return err
	}
	sp, err := fleet.DecodeSpec(bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	// Fresh clients per request: fleet jobs are re-stamped per stream, so
	// an earlier request's memo entries would only hold memory.
	fleetW, fleet1, replay := coschedClient(0), coschedClient(1), coschedClient(0)
	scW, err := sp.BuildWith(fleetW.Engine(), fleetW.Workers())
	if err != nil {
		return err
	}
	var resW *repro.FleetResult
	if s.fleetW, err = l.timed(i, "fleet.simulate", "serve.handler", "workers="+strconv.Itoa(fleetW.Workers()), func() (err error) {
		resW, err = fleetW.SimulateFleet(ctx, scW)
		return err
	}); err != nil {
		return err
	}
	sc1, err := sp.BuildWith(fleet1.Engine(), 1)
	if err != nil {
		return err
	}
	var res1 *repro.FleetResult
	if s.fleet1, err = l.timed(i, "fleet.simulate", "serve.handler", "workers=1", func() (err error) {
		res1, err = fleet1.SimulateFleet(ctx, sc1)
		return err
	}); err != nil {
		return err
	}
	if !reflect.DeepEqual(serve.FleetSummaryOf(scW, resW), serve.FleetSummaryOf(sc1, res1)) {
		return fmt.Errorf("fleet results differ between worker counts")
	}

	// Fleet job j is the stream's j-th arrival (the spec has no cutoff);
	// node k's sub-stream is its routed jobs in routing order.
	scA, err := sp.Build(1)
	if err != nil {
		return err
	}
	var arrivals []des.Arrival
	for a, ok := scA.Arrivals.Next(); ok; a, ok = scA.Arrivals.Next() {
		arrivals = append(arrivals, a)
	}
	if len(arrivals) != resW.Jobs {
		return fmt.Errorf("stream has %d arrivals, fleet routed %d", len(arrivals), resW.Jobs)
	}
	sub := make([][]des.Arrival, len(scW.Nodes))
	for _, route := range resW.Routes {
		sub[route.Node] = append(sub[route.Node], arrivals[route.Job])
	}
	maxJobs := 0
	for _, a := range sub {
		maxJobs = max(maxJobs, len(a))
	}
	s.jobs = resW.Jobs
	s.imbalance = float64(maxJobs) / (float64(resW.Jobs) / float64(len(sub)))

	for k, node := range scW.Nodes {
		if len(sub[k]) == 0 {
			continue
		}
		spec := node.Policy
		if spec == "" {
			spec = "DominantMinRatio"
		}
		pol, err := des.ParsePolicyShared(replay.Engine(), spec, replay.Workers(), fleet.NodePolicySeed(sp.Seed, k))
		if err != nil {
			return err
		}
		tp := &timedPolicy{Policy: pol, l: l, req: i, node: strconv.Itoa(k)}
		proc, err := des.NewReplay(sub[k])
		if err != nil {
			return err
		}
		var res *des.Result
		d, err := l.timed(i, "des.node", "fleet.simulate", tp.node, func() (err error) {
			res, err = replay.SimulateOnline(ctx, des.Scenario{
				Platform: node.Platform, Arrivals: proc, Policy: tp, MaxResident: node.MaxResident,
			})
			return err
		})
		if err != nil {
			return err
		}
		if !slices.Equal(res.Events, resW.Nodes[k].Result.Events) {
			return fmt.Errorf("node %d: standalone replay does not reproduce the fleet's event log", k)
		}
		s.nodeSum += d
		s.allocSum += tp.total
		s.allocCalls += tp.calls
		s.events += len(res.Events)
		s.replan.Add(res.Replan)
	}
	l.fleets = append(l.fleets, s)
	return nil
}

// selfTimes are one sampled request's rung-minus-rung-below splits, in
// seconds, keyed by the self.* metric they feed.
func (s *schedSample) selfTimes() map[string]float64 {
	st := map[string]float64{
		"self.transport_ms": s.rt - s.handler,
		"self.serve_ms":     s.handler - s.race,
	}
	if len(s.evals) == 0 {
		// A memo hit: the race is all portfolio.
		st["self.portfolio_ms"] = s.race
		return st
	}
	// The serial race minus its evaluations is the engine's own work;
	// the rest of the parallel race wall is the evaluations' share.
	port := s.race1 - s.evalSum
	st["self.portfolio_ms"] = port
	st["self.sched_ms"] = s.race - port - s.equalize
	st["self.solve_ms"] = s.equalize
	return st
}

func (s *fleetSample) selfTimes() map[string]float64 {
	return map[string]float64{
		"self.transport_ms": s.rt - s.handler,
		"self.serve_ms":     s.handler - s.fleetW,
		"self.fleet_ms":     s.fleetW - s.nodeSum,
		"self.des_ms":       s.nodeSum - s.allocSum,
		"self.allocate_ms":  s.allocSum,
	}
}

// selfOrder is the self-time table's row order, top rung first.
var selfOrder = []string{"self.transport_ms", "self.serve_ms", "self.portfolio_ms", "self.sched_ms",
	"self.solve_ms", "self.fleet_ms", "self.des_ms", "self.allocate_ms"}

// metrics condenses the samples into the per-layer metrics the ladder
// measures; every per-layer metric it does not reach stays 0.
func (l *ladder) metrics() map[string]float64 {
	m := map[string]float64{}
	self := map[string][]float64{}
	var rts, handler []float64
	ms := func(xs []float64, q float64) float64 { return quantile(xs, q) * 1e3 }
	addSelf := func(st map[string]float64) {
		for k, v := range st {
			self[k] = append(self[k], v)
		}
	}

	if len(l.scheds) > 0 {
		var race, over, evalSum, eq []float64
		var sumEvals, sumRace float64
		per := map[sched.Heuristic][]float64{}
		for _, s := range l.scheds {
			rts = append(rts, s.rt)
			handler = append(handler, s.handler)
			race = append(race, s.race)
			addSelf(s.selfTimes())
			if len(s.evals) == 0 {
				over = append(over, s.race1) // a memo hit is all overhead
				continue
			}
			over = append(over, s.race1-s.evalSum)
			evalSum = append(evalSum, s.evalSum)
			eq = append(eq, s.equalize)
			sumEvals += s.evalSum
			sumRace += s.race
			for h, d := range s.evals {
				per[h] = append(per[h], d)
			}
		}
		m["portfolio.race_ms_p50"] = ms(race, 0.5)
		m["portfolio.race_ms_p99"] = ms(race, 0.99)
		m["portfolio.overhead_ms_p50"] = ms(over, 0.5)
		m["portfolio.parallel_gain"] = ratio(sumEvals, sumRace)
		for _, h := range sched.ExtendedHeuristics {
			m["sched.eval_us."+h.String()] = ms(per[h], 0.5) * 1e3
		}
		m["sched.eval_us_sum"] = ms(evalSum, 0.5) * 1e3
		m["solve.equalize_us_p50"] = ms(eq, 0.5) * 1e3
	}

	if len(l.fleets) > 0 {
		var imb []float64
		var events, calls, jobs int
		var selfSum, nodeSum, allocSum, w1, wN float64
		var rp des.ReplanStats
		for _, s := range l.fleets {
			rts = append(rts, s.rt)
			handler = append(handler, s.handler)
			imb = append(imb, s.imbalance)
			addSelf(s.selfTimes())
			events += s.events
			calls += s.allocCalls
			jobs += s.jobs
			selfSum += s.fleetW - s.nodeSum
			nodeSum += s.nodeSum
			allocSum += s.allocSum
			w1 += s.fleet1
			wN += s.fleetW
			rp.Add(s.replan)
		}
		n := float64(len(l.fleets))
		m["des.events_per_op"] = float64(events) / n
		m["des.self_us_per_event"] = ratio(nodeSum-allocSum, float64(events)) * 1e6
		m["des.allocate_calls_per_op"] = float64(calls) / n
		m["des.allocate_us_p50"] = ms(l.allocDurs, 0.5) * 1e3
		m["des.fast_path_ratio"] = ratio(float64(rp.FastPath), float64(rp.FastPath+rp.FullSolve))
		m["des.memo_hit_ratio"] = rp.HitRate()
		m["fleet.self_us_per_arrival"] = ratio(selfSum, float64(jobs)) * 1e6
		m["fleet.parallel_gain"] = ratio(w1, wN)
		m["fleet.node_jobs_max_over_mean"] = stats.Median(imb)
	}

	sum := 0.0
	for _, k := range selfOrder {
		if xs := self[k]; len(xs) > 0 {
			m[k] = ms(xs, 0.5)
			sum += m[k]
		}
	}
	m["serve.handler_ms_p50"] = ms(handler, 0.5)
	m["serve.handler_ms_p99"] = ms(handler, 0.99)
	m["serve.codec_ms_p50"] = m["self.serve_ms"]
	m["serve.transport_ms_p50"] = m["self.transport_ms"]
	m["fleet.self_ms_p50"] = m["self.fleet_ms"]
	m["trace.remainder_ms"] = ms(rts, 0.5) - sum
	return m
}
