// Package conform is the differential-testing conformance harness: it
// drives every scheduling layer of the repository — the static
// heuristics (internal/sched), the concurrent portfolio engine
// (internal/portfolio), the discrete-event online simulator
// (internal/des) and the static executor (internal/sim) — from
// identical seeded scenarios (internal/genscen) and cross-checks them
// against each other and against the brute-force oracle
// (internal/oracle).
//
// Checks per scenario:
//
//   - worker-determinism: the portfolio report is bit-identical at one
//     worker and at many;
//   - sched-vs-portfolio: the engine's result for every deterministic
//     heuristic equals a direct sched call, bit-for-bit;
//   - best-certification: the portfolio's BestSchedule is never worse
//     than any single feasible heuristic;
//   - oracle: the optimality gap of the portfolio winner against the
//     brute-force bound; on oracle-exact families a gap below 1 is
//     itself a violation;
//   - scaling (metamorphic): multiplying every work value by 4 must
//     scale every heuristic's makespan by exactly 4 (up to float
//     tolerance);
//   - permutation (metamorphic): shuffling the application slice must
//     not change any deterministic heuristic's makespan;
//   - cache-monotonicity (metamorphic): doubling the cache must not
//     worsen a fixed-share schedule, nor the oracle bound;
//   - des-static: the online simulator with every job at t = 0 and a
//     frozen wave policy reproduces internal/sim bit-for-bit;
//   - des-online: the online simulator under the portfolio policy with
//     staggered arrivals is bit-identical from run to run, and its
//     accounting holds on the sample path (see checkSamplePath).
//
// Every scenario also contributes to a per-family digest — a canonical
// hash of all schedules produced — which is compared against a
// committed golden corpus, turning any behavioral drift of any layer
// into a test failure (see the Golden type in report.go).
//
// RunFleet is the multi-node twin: it sweeps the genscen fleet
// families through internal/fleet (see RunFleetContext for its checks).
// Both harnesses share one corpus type, Golden — a fleet corpus just
// has no NodeParams — and one report tail: violation count, digest
// map, NDJSON family/violation/summary lines and the Markdown violation
// list. Only their tables and summary fields differ.
package conform

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/des"
	"repro/internal/genscen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/portfolio"
	"repro/internal/sched"
	"repro/internal/selector"
	"repro/internal/sim"
	"repro/internal/solve"
)

// relTol is the relative tolerance of the metamorphic checks: exact in
// theory, but summation order and bisection endpoints shift by a few
// ulps across transformed instances.
const relTol = 1e-9

// Options parameterizes a harness run.
type Options struct {
	// Seeds is the number of scenarios per family; seed values are
	// BaseSeed, BaseSeed+1, … Zero defaults to 10.
	Seeds int
	// BaseSeed is the first seed; `-seed N -seeds 1` reproduces exactly
	// scenario N. Zero is a valid seed (the CLI defaults to 1).
	BaseSeed uint64
	// Families to generate; nil means all.
	Families []genscen.Family
	// Workers is the parallel arm of the portfolio determinism checks
	// (the engine's pool). Zero defaults to 8.
	Workers int
	// Grid is the oracle's share-discretization step count (default 6).
	Grid int
	// OracleMaxApps bounds the instances handed to the brute-force
	// oracle (default 5); larger instances skip the oracle check only.
	OracleMaxApps int
	// Gen bounds generated instance sizes.
	Gen genscen.Config
	// Metrics, when non-nil, instruments every layer the harness drives
	// (both portfolio engines and all DES runs) on this registry. The
	// report and its digests are identical with and without it — that
	// invariance is itself a conformance property, pinned by
	// TestMetricsInvariantDigests.
	Metrics *obs.Registry
	// Selector, when non-nil, adds the learned-selection check to every
	// scenario: the ledger-driven selector (internal/selector through
	// portfolio.SelectorPolicy, audit mode) decides each scenario on the
	// serial and the parallel engine, the two decisions must be
	// bit-identical — selection is a pure function of (ledger, scenario),
	// never of worker count — and a served prediction's audited
	// optimality gap against the full race must stay within
	// SelectorGapBound on oracle-exact families. The ledger is read-only
	// here (the harness never learns), and the scenario digests are
	// selector-invariant by construction, so a selector run checks
	// against the same golden corpus as a plain one.
	Selector *selector.Ledger
	// SelectorGapBound caps the audited gap of served predictions on
	// oracle-exact families; 0 means DefaultSelectorGapBound.
	SelectorGapBound float64
}

func (o Options) normalized() Options {
	if o.Seeds <= 0 {
		// Zero means "default"; negative would silently produce a
		// vacuous zero-scenario run (and could bake an empty golden
		// corpus), so it defaults too. The CLI rejects it outright.
		o.Seeds = 10
	}
	if len(o.Families) == 0 {
		o.Families = append([]genscen.Family(nil), genscen.Families...)
	}
	if o.Workers == 0 {
		o.Workers = 8
	}
	if o.Grid == 0 {
		o.Grid = 6
	}
	if o.OracleMaxApps == 0 {
		o.OracleMaxApps = 5
	}
	if o.SelectorGapBound == 0 {
		o.SelectorGapBound = DefaultSelectorGapBound
	}
	return o
}

// Violation is one failed cross-check.
type Violation struct {
	Family string `json:"family"`
	Seed   uint64 `json:"seed"`
	Check  string `json:"check"`
	Detail string `json:"detail"`
}

// FamilyResult aggregates one family's scenarios.
type FamilyResult struct {
	Family     string  `json:"family"`
	Scenarios  int     `json:"scenarios"`
	OracleRuns int     `json:"oracleRuns"`
	GapMin     float64 `json:"gapMin"`
	GapGeoMean float64 `json:"gapGeoMean"`
	GapMax     float64 `json:"gapMax"`
	Digest     string  `json:"digest"`
	// Replan aggregates the online runs' delta-rescheduling telemetry
	// across the family's scenarios (reference 1-worker arm). It rides
	// along in the NDJSON report but stays out of the golden corpus,
	// which stores digests only.
	Replan     des.ReplanStats `json:"replan"`
	Violations []Violation     `json:"violations,omitempty"`
	// Selector summarizes the family's learned-selection decisions; nil
	// unless the run had a ledger (Options.Selector). Like Replan it
	// rides along in the report and stays out of the golden corpus.
	Selector *SelectorSummary `json:"selector,omitempty"`
}

// Report is the outcome of one harness run.
type Report struct {
	Seeds    int    `json:"seeds"`
	BaseSeed uint64 `json:"baseSeed"`
	Workers  int    `json:"workers"`
	NodeParams
	Families []FamilyResult `json:"families"`
}

// ReplanTotals sums the per-family delta-rescheduling telemetry.
func (r *Report) ReplanTotals() des.ReplanStats {
	var t des.ReplanStats
	for _, f := range r.Families {
		t.Add(f.Replan)
	}
	return t
}

// Run executes the harness and returns its report. The report is a
// pure function of the options: digests are bit-stable across runs and
// across Workers settings (that stability is itself one of the checks).
func Run(opt Options) (*Report, error) {
	return RunContext(context.Background(), opt)
}

// RunContext is Run under a context: the sweep polls ctx before every
// (family, seed) scenario and stops with ctx.Err() once cancelled, so a
// Ctrl-C'd conformance run exits within one scenario instead of
// finishing the whole corpus.
func RunContext(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.normalized()
	serial := portfolio.New(portfolio.Config{Workers: 1, Metrics: portfolio.NewMetrics(opt.Metrics)})
	parallel := portfolio.New(portfolio.Config{Workers: opt.Workers, Metrics: portfolio.NewMetrics(opt.Metrics)})
	rep := &Report{
		Seeds:    opt.Seeds,
		BaseSeed: opt.BaseSeed,
		Workers:  opt.Workers,
		NodeParams: NodeParams{
			Grid:          opt.Grid,
			OracleMaxApps: opt.OracleMaxApps,
			MinApps:       opt.Gen.MinApps,
			MaxApps:       opt.Gen.MaxApps,
		},
	}
	for _, fam := range opt.Families {
		fr := FamilyResult{Family: fam.String(), GapMin: math.Inf(1)}
		famHash := sha256.New()
		var gapLogSum float64
		var sel selAccum
		ins, scs, err := familyScenarios(fam, opt.BaseSeed, opt.Seeds, opt.Gen)
		if err != nil {
			return nil, err
		}
		// worker-determinism races the family as one batch, the only call
		// that spreads scenarios over the parallel engine; at Workers == 1
		// it would only repeat the serial arm.
		parallelReps := make([]*portfolio.Report, len(ins))
		if opt.Workers > 1 {
			if parallelReps, err = parallel.EvaluateBatchContext(ctx, scs); err != nil {
				return nil, err
			}
		}
		for i, in := range ins {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sr, err := runScenario(in, opt, serial, parallel, parallelReps[i])
			if err != nil {
				return nil, fmt.Errorf("conform: %s seed %d: %w", fam, in.Seed, err)
			}
			fr.Scenarios++
			famHash.Write([]byte(sr.digest))
			fr.Replan.Add(sr.replan)
			fr.Violations = append(fr.Violations, sr.violations...)
			sel.add(sr.selector)
			if sr.gap > 0 {
				fr.OracleRuns++
				fr.GapMin = math.Min(fr.GapMin, sr.gap)
				fr.GapMax = math.Max(fr.GapMax, sr.gap)
				gapLogSum += math.Log(sr.gap)
			}
		}
		if fr.OracleRuns > 0 {
			fr.GapGeoMean = math.Exp(gapLogSum / float64(fr.OracleRuns))
		} else {
			fr.GapMin = 0
		}
		fr.Digest = hex.EncodeToString(famHash.Sum(nil))
		if opt.Selector != nil {
			fr.Selector = sel.summary()
		}
		rep.Families = append(rep.Families, fr)
	}
	return rep, nil
}

// familyScenarios generates the family's instances for seeds base ..
// base+n-1 and their full-portfolio scenarios, both in seed order.
func familyScenarios(fam genscen.Family, base uint64, n int, cfg genscen.Config) ([]*genscen.Instance, []portfolio.Scenario, error) {
	ins := make([]*genscen.Instance, n)
	scs := make([]portfolio.Scenario, n)
	for i := range ins {
		var err error
		if ins[i], err = genscen.Generate(fam, base+uint64(i), cfg); err != nil {
			return nil, nil, err
		}
		scs[i] = ins[i].PortfolioScenario(nil)
	}
	return ins, scs, nil
}

// scenarioResult is the outcome of one (family, seed) scenario.
type scenarioResult struct {
	digest     string
	gap        float64 // portfolio-best / oracle; 0 when the oracle was skipped
	replan     des.ReplanStats
	violations []Violation
	selector   *selDecision // nil unless the run had a ledger
}

// runScenario executes every check on one instance; repP is its report
// from the parallel batch, nil when that arm is off. It returns an
// error only for harness-level failures (generation, simulation
// refusing to run); cross-check disagreements land in violations.
func runScenario(in *genscen.Instance, opt Options, serial, parallel *portfolio.Engine, repP *portfolio.Report) (*scenarioResult, error) {
	sr := &scenarioResult{}
	flag := func(check, format string, args ...any) {
		sr.violations = append(sr.violations, Violation{
			Family: in.Family.String(), Seed: in.Seed,
			Check: check, Detail: fmt.Sprintf(format, args...),
		})
	}

	// Portfolio at one worker is the reference arm everything else is
	// compared against.
	repS, err := serial.Evaluate(in.PortfolioScenario(nil))
	if err != nil {
		return nil, err
	}
	ds := reportDigest(repS)

	// worker-determinism: bit-identical reports across pool sizes.
	if repP != nil && reportDigest(repP) != ds {
		flag("worker-determinism", "portfolio report differs between 1 and %d workers", opt.Workers)
	}

	// heuristic errors: every heuristic must schedule a valid instance.
	for _, res := range repS.Results {
		if res.Err != nil {
			flag("heuristic-error", "%v: %v", res.Heuristic, res.Err)
		}
	}

	// sched-vs-portfolio: deterministic heuristics must match a direct
	// sched call bit-for-bit (the engine adds routing and caching, never
	// arithmetic).
	for _, res := range repS.Results {
		if res.Heuristic.Randomized() || res.Err != nil {
			continue
		}
		direct, err := res.Heuristic.Schedule(in.Platform, in.CloneApps(), nil)
		if err != nil {
			flag("sched-vs-portfolio", "%v: direct call failed: %v", res.Heuristic, err)
			continue
		}
		if d1, d2 := scheduleDigest(direct), scheduleDigest(res.Schedule); d1 != d2 {
			flag("sched-vs-portfolio", "%v: engine schedule differs from direct sched call", res.Heuristic)
		}
	}

	// best-certification: the winner is never worse than any feasible
	// single heuristic.
	best := repS.BestResult()
	if best == nil {
		flag("best-certification", "no feasible heuristic")
		// Same digest shape as the main path (sha256 hex), just without
		// the oracle/des components this scenario never produced.
		sum := sha256.Sum256([]byte(ds))
		sr.digest = hex.EncodeToString(sum[:])
		return sr, nil
	}
	for _, res := range repS.Results {
		if res.Err == nil && res.Schedule != nil && !math.IsNaN(res.Schedule.Makespan) &&
			res.Schedule.Makespan < best.Schedule.Makespan {
			flag("best-certification", "%v makespan %v beats BestSchedule %v",
				res.Heuristic, res.Schedule.Makespan, best.Schedule.Makespan)
		}
	}

	// oracle: brute-force bound and optimality gap on small instances.
	// The oracle enumerates *concurrent* co-schedules (the paper's
	// CoSchedCache space), so it is graded against the best concurrent
	// heuristic; the sequential AllProcCache baseline legitimately
	// escapes the space (and the bound) on cache-starved instances.
	oracleDigest := "oracle:skip"
	var oracleMakespan float64
	oracleRan := false
	bestConcurrent := math.Inf(1)
	for _, res := range repS.Results {
		if res.Err == nil && res.Schedule != nil && !res.Schedule.Sequential &&
			!math.IsNaN(res.Schedule.Makespan) && res.Schedule.Makespan < bestConcurrent {
			bestConcurrent = res.Schedule.Makespan
		}
	}
	if len(in.Apps) <= opt.OracleMaxApps {
		sol, err := oracle.Solve(in.Platform, in.Apps, oracle.Options{Grid: opt.Grid, MaxApps: opt.OracleMaxApps})
		if err != nil {
			flag("oracle", "solve failed: %v", err)
		} else {
			oracleRan = true
			oracleMakespan = sol.Makespan
			oracleDigest = "oracle:" + hexFloat(sol.Makespan)
			// With no feasible concurrent heuristic the gap is undefined
			// (+Inf would also break JSON encoding downstream); the
			// heuristic-error check has already flagged the cause.
			if g := oracle.Gap(bestConcurrent, sol.Makespan); !math.IsInf(g, 0) && !math.IsNaN(g) {
				sr.gap = g
				if in.Family.OracleExact() && g < 1-relTol {
					flag("oracle", "best concurrent makespan %v beats the exact optimum %v (gap %v)",
						bestConcurrent, sol.Makespan, g)
				}
			}
		}
	}

	checkScaling(in, serial, repS, flag)
	checkPermutation(in, serial, repS, flag)
	checkCacheMonotonicity(in, opt, best, oracleRan, oracleMakespan, flag)

	desDigest, err := checkDESStatic(in, opt, flag)
	if err != nil {
		return nil, err
	}
	onlineDig, replan, err := checkDESOnline(in, opt, best.Schedule.Makespan, flag)
	if err != nil {
		return nil, err
	}
	sr.replan = replan

	// Learned selection rides alongside the digest, never inside it: a
	// selector run must stay comparable to the plain golden corpus.
	if opt.Selector != nil {
		sr.selector, err = checkSelector(in, opt, serial, parallel, flag)
		if err != nil {
			return nil, err
		}
	}

	// The online event log participates in the digest (hashed from the
	// 1-worker run, so the digest stays worker-invariant): a behavioral
	// change in the online simulator that is consistent across pool
	// sizes still fails the golden gate.
	sum := sha256.Sum256([]byte(ds + "\n" + oracleDigest + "\n" + desDigest + "\n" + onlineDig))
	sr.digest = hex.EncodeToString(sum[:])
	return sr, nil
}

// checkScaling: Work → 4·Work must scale every makespan by exactly 4.
// The factor is a power of two, so in exact terms every intermediate
// float scales by an exponent shift; the tolerance covers bisection
// endpoint drift. Randomized heuristics are included — the scenario
// seed is unchanged and dominance-ratio *orderings* are scale
// invariant, so they make identical decisions.
func checkScaling(in *genscen.Instance, eng *portfolio.Engine, base *portfolio.Report, flag func(string, string, ...any)) {
	const lambda = 4.0
	scaled := in.CloneApps()
	for i := range scaled {
		scaled[i].Work *= lambda
	}
	sc := in.PortfolioScenario(nil)
	sc.Apps = scaled
	rep, err := eng.Evaluate(sc)
	if err != nil {
		flag("scaling", "scaled evaluation failed: %v", err)
		return
	}
	for i, res := range rep.Results {
		b := base.Results[i]
		if res.Err != nil || b.Err != nil {
			if (res.Err == nil) != (b.Err == nil) {
				flag("scaling", "%v: feasibility changed under time scaling", res.Heuristic)
			}
			continue
		}
		if rel := solve.RelDiff(res.Schedule.Makespan, lambda*b.Schedule.Makespan); rel > relTol {
			flag("scaling", "%v: makespan %v not 4x base %v (rel %v)",
				res.Heuristic, res.Schedule.Makespan, b.Schedule.Makespan, rel)
		}
	}
}

// checkPermutation: shuffling the application slice must leave every
// deterministic heuristic's makespan unchanged (sorts and tie-breaks
// must key on values, not input positions). Randomized heuristics are
// exempt by design: their seed-derived choices attach to positions so
// that a fixed seed reproduces a fixed schedule.
func checkPermutation(in *genscen.Instance, eng *portfolio.Engine, base *portfolio.Report, flag func(string, string, ...any)) {
	n := len(in.Apps)
	if n < 2 {
		return
	}
	perm := solve.NewRNG(in.Seed ^ 0xA5A5A5A5A5A5A5A5).Perm(n)
	permuted := make([]model.Application, n)
	for i, j := range perm {
		permuted[i] = in.Apps[j]
	}
	hs := sched.DeterministicHeuristics
	sc := in.PortfolioScenario(hs)
	sc.Apps = permuted
	rep, err := eng.Evaluate(sc)
	if err != nil {
		flag("permutation", "permuted evaluation failed: %v", err)
		return
	}
	byHeuristic := make(map[sched.Heuristic]*sched.Schedule)
	for _, res := range base.Results {
		if res.Err == nil {
			byHeuristic[res.Heuristic] = res.Schedule
		}
	}
	for _, res := range rep.Results {
		b, ok := byHeuristic[res.Heuristic]
		if res.Err != nil || !ok {
			// Feasibility must be order-independent in both directions:
			// failing only on the permuted order, or only on the base
			// order, are equally order-dependent behaviors.
			if res.Err != nil && ok {
				flag("permutation", "%v: failed on permuted input: %v", res.Heuristic, res.Err)
			} else if res.Err == nil && !ok {
				flag("permutation", "%v: failed on base input but succeeded on permuted", res.Heuristic)
			}
			continue
		}
		if rel := solve.RelDiff(res.Schedule.Makespan, b.Makespan); rel > relTol {
			flag("permutation", "%v: makespan %v != %v under permutation (rel %v)",
				res.Heuristic, res.Schedule.Makespan, b.Makespan, rel)
		}
	}
}

// checkCacheMonotonicity: more cache never hurts — re-equalizing the
// winning shares on a doubled cache must not increase the makespan,
// and the oracle bound must not increase either.
func checkCacheMonotonicity(in *genscen.Instance, opt Options, best *portfolio.Result, oracleRan bool, oracleMakespan float64, flag func(string, string, ...any)) {
	if best.Schedule.Sequential {
		// AllProcCache won: fixed-share re-equalization doesn't apply to
		// a sequential schedule; the oracle arm below still runs.
	} else {
		shares := make([]float64, len(best.Schedule.Assignments))
		for i, a := range best.Schedule.Assignments {
			shares[i] = a.CacheShare
		}
		m1 := equalizedMakespan(in.Platform, in.Apps, shares)
		big := in.Platform
		big.CacheSize *= 2
		m2 := equalizedMakespan(big, in.Apps, shares)
		if m2 > m1*(1+relTol) {
			flag("cache-monotonicity", "fixed shares: makespan %v grew to %v on a doubled cache", m1, m2)
		}
	}
	if oracleRan {
		big := in.Platform
		big.CacheSize *= 2
		sol, err := oracle.Solve(big, in.Apps, oracle.Options{Grid: opt.Grid, MaxApps: opt.OracleMaxApps})
		if err != nil {
			flag("cache-monotonicity", "oracle on doubled cache failed: %v", err)
			return
		}
		if sol.Makespan > oracleMakespan*(1+relTol) {
			flag("cache-monotonicity", "oracle bound %v grew to %v on a doubled cache", oracleMakespan, sol.Makespan)
		}
	}
}

// equalizedMakespan completes fixed shares into a schedule and returns
// its honest makespan (+Inf when the equalizer refuses).
func equalizedMakespan(pl model.Platform, apps []model.Application, shares []float64) float64 {
	procs, _, err := sched.EqualizeAmdahl(pl, apps, shares)
	if err != nil {
		return math.Inf(1)
	}
	m := 0.0
	for i, a := range apps {
		m = math.Max(m, a.Exe(pl, procs[i], shares[i]))
	}
	return m
}

// checkDESStatic: the online engine with every job at t = 0 under the
// frozen wave policy must reproduce internal/sim's static execution of
// the same heuristic bit-for-bit — makespan, per-job finish times and
// the processor-time integral.
func checkDESStatic(in *genscen.Instance, opt Options, flag func(string, string, ...any)) (string, error) {
	const h = sched.DominantMinRatio
	s, err := h.Schedule(in.Platform, in.CloneApps(), nil)
	if err != nil {
		return "", fmt.Errorf("des-static reference schedule: %w", err)
	}
	want, err := sim.Execute(in.Platform, in.Apps, s, sim.Static)
	if err != nil {
		return "", fmt.Errorf("des-static sim: %w", err)
	}
	sc, err := in.StaticDES(h)
	if err != nil {
		return "", err
	}
	sc.Metrics = des.NewMetrics(opt.Metrics)
	got, err := des.Simulate(sc)
	if err != nil {
		return "", fmt.Errorf("des-static simulate: %w", err)
	}
	if got.Makespan != want.Makespan {
		flag("des-static", "makespan %v != sim %v", got.Makespan, want.Makespan)
	}
	for i := range in.Apps {
		if got.Jobs[i].Finish != want.FinishTimes[i] {
			flag("des-static", "job %d finish %v != sim %v", i, got.Jobs[i].Finish, want.FinishTimes[i])
		}
	}
	if got.ProcessorTime != want.ProcessorTime {
		flag("des-static", "processor time %v != sim %v", got.ProcessorTime, want.ProcessorTime)
	}
	return "des:" + hexFloat(got.Makespan), nil
}

// checkDESOnline: staggered arrivals under the portfolio policy must
// yield bit-identical runs — full event logs included — when one build
// simulates the same spec twice. The returned string is the first
// run's canonical digest, folded into the scenario digest so
// online-simulator drift fails the golden gate too; the second return
// is that run's delta-rescheduling telemetry.
//
// Every arrival of that run gets processors at once, so its queue
// integral and waits are all zero. One more run of the same spec with
// at most onlineCap residents queues jobs, and its sample path is
// checked too; it stays out of the digest.
func checkDESOnline(in *genscen.Instance, opt Options, span float64, flag func(string, string, ...any)) (string, des.ReplanStats, error) {
	sp, err := in.OnlineSpec("portfolio", span)
	if err != nil {
		return "", des.ReplanStats{}, err
	}
	run := func(sp *des.Spec) (*des.Result, error) {
		sc, err := sp.Build()
		if err != nil {
			return nil, err
		}
		sc.Metrics = des.NewMetrics(opt.Metrics)
		return des.Simulate(sc)
	}
	r1, err := run(sp)
	if err != nil {
		return "", des.ReplanStats{}, fmt.Errorf("des-online: %w", err)
	}
	checkSamplePath(r1, in.Platform, "", flag)
	capped := *sp
	capped.MaxResident = onlineCap
	rc, err := run(&capped)
	if err != nil {
		return "", des.ReplanStats{}, fmt.Errorf("des-online cap %d: %w", onlineCap, err)
	}
	checkSamplePath(rc, in.Platform, fmt.Sprintf("cap %d: ", onlineCap), flag)
	d1 := onlineDigest(r1)
	r2, err := run(sp)
	if err != nil {
		return "", des.ReplanStats{}, fmt.Errorf("des-online second run: %w", err)
	}
	if d2 := onlineDigest(r2); d1 != d2 {
		flag("des-online", "online run differs between two runs of one spec")
	}
	return d1, r1.Replan, nil
}

// queueTol is the relative tolerance of the queue-time and response
// identities: each side adds the same intervals in a different order.
// budgetTol mirrors the des engine's slack on the processor and cache
// budgets of an allocation, which the time integrals inherit. onlineCap
// is the residency cap of the des-online arm's queueing run.
const (
	queueTol  = 1e-12
	budgetTol = 1e-6
	onlineCap = 2
)

// checkSamplePath checks the accounting of one online run on its own
// sample path, flagging violations under "sample-path" with prefix
// naming the run in the detail:
//
//   - QueueTime, the integral of the queue length, equals the sum of
//     the jobs' waits (Little's law on the sample path): a job is
//     queued exactly from its arrival to its first processors. The
//     integral also counts a started job that a policy parks at a zero
//     allocation, which its wait does not. The built-in policies never
//     do that: the heuristics give every resident a positive processor
//     share (short of a share underflowing to zero, which takes work
//     ratios beyond 1e300), and a frozen wave keeps its shares. So any
//     gap here is an accounting error.
//   - ProcessorTime ≤ p·Makespan and CacheTime ≤ Makespan, up to the
//     engine's budget slack.
//   - Every job's Response equals Wait + (Finish − Start), to queueTol
//     relative to its Finish.
func checkSamplePath(r *des.Result, pl model.Platform, prefix string, flag func(string, string, ...any)) {
	var wait solve.Kahan
	for _, j := range r.Jobs {
		wait.Add(j.Wait)
		if d := math.Abs(j.Response - (j.Wait + (j.Finish - j.Start))); !(d <= queueTol*j.Finish) {
			flag("sample-path", "%sjob %d response %v != wait %v + service %v", prefix, j.Job, j.Response, j.Wait, j.Finish-j.Start)
		}
	}
	if d := math.Abs(r.QueueTime - wait.Sum()); d > queueTol*math.Max(r.QueueTime, wait.Sum()) {
		flag("sample-path", "%squeue time %v != summed wait %v", prefix, r.QueueTime, wait.Sum())
	}
	if r.ProcessorTime > pl.Processors*r.Makespan*(1+budgetTol) {
		flag("sample-path", "%sprocessor time %v exceeds p x makespan %v", prefix, r.ProcessorTime, pl.Processors*r.Makespan)
	}
	if r.CacheTime > r.Makespan*(1+budgetTol) {
		flag("sample-path", "%scache time %v exceeds makespan %v", prefix, r.CacheTime, r.Makespan)
	}
}

// hexFloat renders a float64 exactly (hexadecimal mantissa/exponent),
// the canonical form all digests use: two values digest equal iff they
// are bit-equal (modulo -0/+0, which never arises here).
func hexFloat(v float64) string {
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// scheduleDigest canonically serializes one schedule.
func scheduleDigest(s *sched.Schedule) string {
	var b strings.Builder
	b.WriteString(hexFloat(s.Makespan))
	if s.Sequential {
		b.WriteString(" seq")
	}
	for _, a := range s.Assignments {
		b.WriteByte(' ')
		b.WriteString(hexFloat(a.Processors))
		b.WriteByte(',')
		b.WriteString(hexFloat(a.CacheShare))
	}
	return b.String()
}

// reportDigest canonically serializes a portfolio report (cache
// provenance excluded: a cache hit must be indistinguishable from a
// fresh computation).
func reportDigest(rep *portfolio.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "best=%d", rep.Best)
	for _, res := range rep.Results {
		b.WriteByte('\n')
		b.WriteString(res.Heuristic.String())
		b.WriteByte('=')
		if res.Err != nil {
			b.WriteString("err")
			continue
		}
		b.WriteString(scheduleDigest(res.Schedule))
	}
	return b.String()
}

// onlineDigest canonically serializes an online run: the full event
// log plus per-job metrics and integrals.
func onlineDigest(r *des.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%s ptime=%s ctime=%s qtime=%s reparts=%d",
		hexFloat(r.Makespan), hexFloat(r.ProcessorTime), hexFloat(r.CacheTime),
		hexFloat(r.QueueTime), r.Repartitions)
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, "\njob %d %s a=%s s=%s f=%s", j.Job, j.Name,
			hexFloat(j.Arrival), hexFloat(j.Start), hexFloat(j.Finish))
	}
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "\nev %d t=%s k=%v j=%d r=%d q=%d", ev.Seq, hexFloat(ev.Time), ev.Kind, ev.Job, ev.Resident, ev.Queued)
	}
	return b.String()
}
