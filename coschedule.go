// Package repro is a Go implementation of the co-scheduling algorithms
// for cache-partitioned systems of Aupy, Benoit, Pottier, Raghavan,
// Robert and Shantharam (IPDPS 2017 / INRIA RR-8965).
//
// Given n parallel applications and a platform whose last-level cache can
// be partitioned (à la Intel Cache Allocation Technology), the library
// decides how many (rational) processors and which fraction of the cache
// to give each application so that the makespan — the completion time of
// the longest application, all starting together — is minimized.
//
// The front door is the context-aware Client: a long-lived handle
// owning a bounded worker pool and a memoization cache, whose methods
// all take a context.Context and honor cancellation and deadlines
// promptly.
//
// Quick start:
//
//	client := repro.NewClient() // GOMAXPROCS workers, memoization on
//	pl := repro.TaihuLight()
//	apps := repro.NPB()
//	best, rep, err := client.Best(ctx, pl, apps)
//	if err != nil { ... }
//	fmt.Println(best.Makespan, len(rep.Results))
//
// Best races every heuristic and serves the winner; use NewClient
// options to tune it: WithWorkers bounds the pool, WithCache
// toggles memoization, WithHeuristics restricts the raced set, WithSeed
// drives the randomized policies. Client.Schedule evaluates a single
// heuristic, Client.EvaluateBatch streams NDJSON-scale scenario batches
// in bounded memory, and Client.SimulateOnline runs the discrete-event
// online simulator (jobs arriving over virtual time, an online policy
// repartitioning the node at every event).
//
// The building blocks behind the client remain exported:
//
//   - Platform and Application describe the hardware and the workload
//     (Amdahl speedup + Power Law of Cache Misses cost model).
//   - Heuristic enumerates the paper's ten scheduling policies (plus
//     the SharedCache and LocalSearch extensions); its Schedule method
//     produces a complete assignment with a caller-owned RNG.
//   - Schedule holds the resulting {(p_i, x_i)} with validation and
//     per-application finish times.
//   - OnlineScenario/OnlinePolicy/ArrivalProcess describe online
//     simulations; see the arrival and policy constructors.
//
// # Concurrency, determinism and caching
//
// Heuristic evaluation is CPU-bound, so the default of GOMAXPROCS
// workers saturates the machine; smaller pools bound the client's share
// of it when co-resident with other work. One call races its heuristics
// serially, so the pool fills with concurrent calls and batch scenarios.
// All calls on one client share its pool, and results are bit-for-bit
// identical for any pool size (each heuristic's randomness is derived
// from the scenario seed and its position, never from execution order).
//
// The cache is sharded and mutex-striped, keyed by a canonical hash of
// (platform, applications, heuristic, seed); the seed is ignored for
// deterministic heuristics, so repeated workloads hit regardless of
// seed. Cached schedules are shared between callers — treat them as
// immutable. Concurrent identical requests collapse into one
// computation, and computations abandoned by cancellation are never
// cached.
//
// # Errors and cancellation
//
// Failures use a small typed vocabulary — ErrInfeasible,
// *ValidationError, *HeuristicError — that works with errors.Is/As
// across every package boundary; see the declarations in this package.
// Cancelling a context mid-call returns ctx.Err() promptly (within one
// in-flight heuristic evaluation per race, or a few simulator
// events), leaks no goroutines, and leaves the client fully reusable.
//
// For the evaluation harness reproducing the paper's figures, see
// cmd/experiments; for CAT way-mask realization of fractional shares, see
// the CATPartition helper.
package repro

import (
	"repro/internal/cat"
	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/sched"
	"repro/internal/selector"
	"repro/internal/sim"
	"repro/internal/solve"
	"repro/internal/workload"
)

// Platform describes the multi-core machine; see model.Platform.
type Platform = model.Platform

// Application describes one co-scheduled job; see model.Application.
type Application = model.Application

// Assignment is one application's resource share; see sched.Assignment.
type Assignment = sched.Assignment

// Schedule is a complete co-schedule; see sched.Schedule.
type Schedule = sched.Schedule

// Heuristic enumerates the scheduling policies; see sched.Heuristic.
type Heuristic = sched.Heuristic

// The ten policies of the paper. DominantMinRatio is the reference
// heuristic (best or tied-best in every experiment).
const (
	DominantRandom      = sched.DominantRandom
	DominantMinRatio    = sched.DominantMinRatio
	DominantMaxRatio    = sched.DominantMaxRatio
	DominantRevRandom   = sched.DominantRevRandom
	DominantRevMinRatio = sched.DominantRevMinRatio
	DominantRevMaxRatio = sched.DominantRevMaxRatio
	Fair                = sched.Fair
	ZeroCache           = sched.ZeroCache
	RandomPart          = sched.RandomPart
	AllProcCache        = sched.AllProcCache
)

// Heuristics lists every policy in presentation order.
var Heuristics = sched.Heuristics

// ParseHeuristic resolves a heuristic name (as produced by its String
// method).
func ParseHeuristic(name string) (Heuristic, error) { return sched.ParseHeuristic(name) }

// TaihuLight returns the paper's reference platform: 256 processors,
// 32 GB shared LLC, ll = 1, ls = 0.17, α = 0.5.
func TaihuLight() Platform { return model.TaihuLight() }

// NPB returns the six NAS Parallel Benchmark applications of the paper's
// Table 2.
func NPB() []Application { return workload.NPB() }

// NewRNG returns a deterministic random stream for the randomized
// heuristics (DominantRandom, DominantRevRandom, RandomPart).
func NewRNG(seed uint64) *solve.RNG { return solve.NewRNG(seed) }

// ExactSchedule enumerates all cache partitions (n ≤ 24) and returns the
// optimal schedule for perfectly parallel applications; a ground-truth
// reference for validating heuristics on small instances.
func ExactSchedule(pl Platform, apps []Application) (*Schedule, error) {
	s, _, err := sched.ExactSubset(pl, apps)
	return s, err
}

// CATAllocation is the way-level realization of fractional cache shares;
// see cat.Allocation.
type CATAllocation = cat.Allocation

// CATPartition rounds a schedule's fractional cache shares onto `ways`
// whole, contiguous LLC ways as Intel CAT requires. Invalid inputs —
// a nil or empty schedule, out-of-range shares or way counts — return a
// *ValidationError naming the offending field.
func CATPartition(s *Schedule, ways int) (*CATAllocation, error) {
	if s == nil {
		return nil, &ValidationError{Field: "schedule", Reason: "cannot partition a nil schedule"}
	}
	if len(s.Assignments) == 0 {
		return nil, &ValidationError{Field: "schedule.assignments", Value: 0, Reason: "cannot partition an empty schedule"}
	}
	shares := make([]float64, len(s.Assignments))
	for i, a := range s.Assignments {
		shares[i] = a.CacheShare
	}
	return cat.Partition(shares, ways)
}

// SimulationResult is the outcome of discrete-event execution; see
// sim.Result.
type SimulationResult = sim.Result

// Simulate executes the schedule in the discrete-event engine with static
// allocations and returns per-application finish times; it cross-checks
// the analytic model.
func Simulate(pl Platform, apps []Application, s *Schedule) (*SimulationResult, error) {
	return sim.Execute(pl, apps, s, sim.Static)
}

// SimulateRedistribute executes the schedule, handing resources freed by
// finished applications to the survivors — an extension quantifying the
// headroom a static assignment leaves for unequal-finish schedules.
func SimulateRedistribute(pl Platform, apps []Application, s *Schedule) (*SimulationResult, error) {
	return sim.Execute(pl, apps, s, sim.Redistribute)
}

// LocalSearchSchedule is the speedup-profile-aware extension named in the
// paper's conclusion: hill-climbing over cache-partition memberships
// evaluated with the true Amdahl profiles, warm-started from
// DominantMinRatio. Never worse than the warm start; strictly better on
// workloads with heterogeneous sequential fractions and tight caches.
func LocalSearchSchedule(pl Platform, apps []Application, rng *solve.RNG) (*Schedule, error) {
	return sched.LocalSearch.Schedule(pl, apps, rng)
}

// MetricsRegistry collects runtime telemetry — counters, gauges and
// histograms — from an instrumented client (see WithMetrics). Snapshot
// returns a deterministic sample dump and WriteProm renders the
// Prometheus text exposition; see internal/obs for the model. A nil
// registry disables instrumentation everywhere it is accepted.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry ready for
// concurrent use. Pass it to NewClient(WithMetrics(reg)) and scrape it
// with reg.WriteProm (or serve it on a debug listener; see the cmd/
// binaries' -debug-addr flag).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// PortfolioEngine evaluates many heuristics and scenarios concurrently
// on a bounded worker pool; see portfolio.Engine.
type PortfolioEngine = portfolio.Engine

// PortfolioScenario is one scheduling problem for the portfolio engine;
// see portfolio.Scenario.
type PortfolioScenario = portfolio.Scenario

// PortfolioReport is the per-heuristic outcome of one scenario; see
// portfolio.Report.
type PortfolioReport = portfolio.Report

// PortfolioResult is one heuristic's outcome; see portfolio.Result.
type PortfolioResult = portfolio.Result

// Learned heuristic selection (internal/selector): a win-rate ledger
// keyed by scenario feature buckets predicts the winning heuristic, and
// a selector policy runs the predicted winner first, falling back to
// the full portfolio race when the prediction is not confident.

// SelectorLedger accumulates per-(feature-bucket, heuristic) race
// outcomes and predicts winners; see selector.Ledger.
type SelectorLedger = selector.Ledger

// SelectorThresholds gates when a prediction is confident enough to
// skip the race; see selector.Thresholds.
type SelectorThresholds = selector.Thresholds

// SelectorPrediction is one ledger prediction; see selector.Prediction.
type SelectorPrediction = selector.Prediction

// SelectorDecision is the outcome of one selected scenario — the
// served report, whether the shortcut was taken, and the fallback
// reason when not; see portfolio.Decision.
type SelectorDecision = portfolio.Decision

// SelectorFeatures is the deterministic feature vector extracted from
// a scenario; see selector.Features.
type SelectorFeatures = selector.Features

// ExtractFeatures computes the scenario feature vector driving ledger
// bucketing; pure and deterministic in its inputs.
func ExtractFeatures(pl Platform, apps []Application) SelectorFeatures {
	return selector.Extract(pl, apps)
}

// NewSelectorLedger returns an empty win-rate ledger.
func NewSelectorLedger() *SelectorLedger { return selector.New() }

// LoadSelectorLedger loads and validates a persisted ledger (see
// cmd/ledger for training and inspection).
func LoadSelectorLedger(path string) (*SelectorLedger, error) { return selector.LoadFile(path) }

// Online simulation (internal/des): jobs arrive over virtual time and an
// online policy repartitions processors and cache at every arrival and
// completion, charging each job's remaining work under the new shares.

// OnlineScenario is one online co-scheduling problem; see des.Scenario.
type OnlineScenario = des.Scenario

// OnlineResult is the outcome of an online simulation; see des.Result.
type OnlineResult = des.Result

// OnlinePolicy decides repartitions at every arrival/completion; see
// des.Policy.
type OnlinePolicy = des.Policy

// ArrivalProcess produces a finite stream of job arrivals; see
// des.ArrivalProcess.
type ArrivalProcess = des.ArrivalProcess

// JobArrival is one (time, application) arrival; see des.Arrival.
type JobArrival = des.Arrival

// CycleJobs returns a des.JobFactory cycling through the template
// applications, stamping each instance with a unique name.
func CycleJobs(apps []Application) (des.JobFactory, error) { return des.CycleApps(apps) }

// PoissonArrivals returns a homogeneous Poisson arrival process: n jobs
// with exponential inter-arrival times at the given rate.
func PoissonArrivals(rate float64, n int, factory des.JobFactory, rng *solve.RNG) (ArrivalProcess, error) {
	return des.NewPoisson(rate, n, factory, rng)
}

// InhomogeneousPoissonArrivals returns a time-varying Poisson process
// simulated by Lewis–Shedler thinning; rate is the intensity λ(t),
// maxRate its upper bound.
func InhomogeneousPoissonArrivals(rate des.RateFunc, maxRate float64, n int, factory des.JobFactory, rng *solve.RNG) (ArrivalProcess, error) {
	return des.NewInhomogeneousPoisson(rate, maxRate, n, factory, rng)
}

// GammaBurstArrivals returns a bursty process: groups of burst jobs
// separated by Gamma(shape, scale) gaps.
func GammaBurstArrivals(shape, scale float64, burst, n int, factory des.JobFactory, rng *solve.RNG) (ArrivalProcess, error) {
	return des.NewGammaBursts(shape, scale, burst, n, factory, rng)
}

// BatchArrivals returns a deterministic process: n jobs in groups of
// size, one group every interval (interval 0 puts every job at t = 0,
// the paper's offline setting).
func BatchArrivals(interval float64, size, n int, factory des.JobFactory) (ArrivalProcess, error) {
	return des.NewBatch(interval, size, n, factory)
}

// ReplayArrivals replays a recorded arrival trace verbatim.
func ReplayArrivals(arrivals []JobArrival) (ArrivalProcess, error) { return des.NewReplay(arrivals) }

// HeuristicRepartition returns the online policy that reschedules every
// resident job's remaining work with h at each arrival and completion.
func HeuristicRepartition(h Heuristic, seed uint64) (OnlinePolicy, error) {
	return des.NewHeuristicPolicy(h, seed)
}

// PortfolioRepartition returns the online policy that races the whole
// concurrent-heuristic portfolio over the residual workload at every
// decision point and applies the winner. The race runs on the
// simulating goroutine, so workers is ignored; it stays for callers of
// the v2 API.
func PortfolioRepartition(workers int, seed uint64) OnlinePolicy {
	return des.NewPortfolioPolicy(seed)
}

// NoRepartitionPolicy returns the wave-scheduling baseline: allocate
// with h when the node drains, freeze in between (arrivals mid-wave
// wait). With every job at t = 0 this reproduces the paper's static
// setting bit-for-bit.
func NoRepartitionPolicy(h Heuristic, seed uint64) (OnlinePolicy, error) {
	return des.NewNoRepartition(h, seed)
}

// Fleet simulation (internal/fleet): N heterogeneous nodes, each
// running the single-node online simulator, behind a deterministic
// routing layer.

// FleetScenario is one multi-node simulation problem; see
// fleet.Scenario.
type FleetScenario = fleet.Scenario

// FleetNode configures one node of a fleet; see fleet.Node.
type FleetNode = fleet.Node

// FleetResult is the outcome of a fleet simulation: routing log,
// per-node results and fleet-wide summaries; see fleet.Result.
type FleetResult = fleet.Result

// FleetNodeResult is one node's outcome within a fleet; see
// fleet.NodeResult.
type FleetNodeResult = fleet.NodeResult

// FleetRoute records one routing decision; see fleet.Route.
type FleetRoute = fleet.Route

// FleetRoutings lists the routing policy names accepted by
// FleetScenario.Routing: least-loaded, cache-affinity,
// power-of-two-choices and join-shortest-queue.
func FleetRoutings() []string { return append([]string(nil), fleet.Routings...) }

// IntegerSchedule realizes a rational schedule with whole processors; see
// sched.IntegerSchedule.
type IntegerSchedule = sched.IntegerSchedule

// RoundProcessors converts a rational schedule to whole processors
// (largest-remainder, every application keeps ≥ 1) and reports the
// makespan degradation.
func RoundProcessors(pl Platform, apps []Application, s *Schedule) (*IntegerSchedule, error) {
	return sched.RoundProcessors(pl, apps, s)
}
