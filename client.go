package repro

import (
	"context"
	"iter"

	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/selector"
)

// Client is the library's v2 front door: a long-lived, concurrency-safe
// handle owning a portfolio engine, its worker pool and its memoization
// cache. Every method takes a context.Context and honors cancellation
// and deadlines promptly — the portfolio worker pool polls the context
// between heuristic evaluations, the online simulator's event loop
// checks it every few events, and the iterative heuristics poll it
// between refinement steps.
//
// Construct one Client per logical workload source and reuse it: the
// memoization cache only pays off across calls, and all its portfolio
// races share one bounded worker pool. The zero-configuration
// NewClient() is right for most uses; see the With* options for tuning.
type Client struct {
	engine     *portfolio.Engine
	heuristics []Heuristic
	seed       uint64
	desMetrics *des.Metrics
	sel        *portfolio.SelectorPolicy
	selEnabled bool
}

// clientConfig collects the functional options of NewClient.
type clientConfig struct {
	workers    int
	cache      bool
	heuristics []Heuristic
	seed       uint64
	metrics    *obs.Registry
	ledger     *selector.Ledger
	selTh      selector.Thresholds
	selEnabled bool
}

// ClientOption configures NewClient.
type ClientOption func(*clientConfig)

// WithWorkers bounds the client's worker pool: at most n heuristic
// evaluations of its portfolio races run at once across all concurrent
// calls on the client (online simulations race on their calling
// goroutine, outside the pool). Values < 1 (and the default) mean
// GOMAXPROCS. Results are bit-for-bit identical at any worker count.
func WithWorkers(n int) ClientOption {
	return func(c *clientConfig) { c.workers = n }
}

// WithCache enables or disables the memoization cache (default:
// enabled). The cache memoizes solved (scenario, heuristic) pairs under
// a canonical input hash, so repeated workloads are served with zero
// recomputation. Its memory is bounded (8,192 entries, evicted by
// CLOCK), so disabling it for workloads that never repeat only saves
// building each key and inserting each result.
func WithCache(enabled bool) ClientOption {
	return func(c *clientConfig) { c.cache = enabled }
}

// WithHeuristics fixes the heuristic set raced by Best and used as the
// default for Evaluate/EvaluateBatch scenarios that do not name their
// own. The default (no option, or zero heuristics) is the full extended
// set: the paper's ten policies plus SharedCache and LocalSearch.
func WithHeuristics(hs ...Heuristic) ClientOption {
	return func(c *clientConfig) { c.heuristics = hs }
}

// WithMetrics exports the client's runtime telemetry on reg: the
// portfolio engine's race latency, cache and worker-queue series, and
// the online simulator's event, replan and per-job series (see the
// metric catalogs in internal/portfolio and internal/des). Metrics only
// record — they never feed back into scheduling decisions — so an
// instrumented client stays bit-identical to a bare one. A nil registry
// (and the default) leaves the client uninstrumented with zero
// overhead.
func WithMetrics(reg *MetricsRegistry) ClientOption {
	return func(c *clientConfig) { c.metrics = reg }
}

// WithSelector arms the client with a trained win-rate ledger: Best
// routes through the predicted-winner-first selector (see
// Client.Select) instead of always racing the full set. A nil ledger
// means an empty one — every scenario falls back to the full race, so
// an unarmed selector is bit-identical to the plain portfolio. The
// zero Thresholds value means selector.DefaultThresholds(). The ledger
// is read-only under this client (serving never learns); train and
// persist ledgers with cmd/ledger.
func WithSelector(l *SelectorLedger, th SelectorThresholds) ClientOption {
	return func(c *clientConfig) {
		c.ledger = l
		c.selTh = th
		c.selEnabled = true
	}
}

// WithSeed fixes the master seed driving the randomized heuristics
// (DominantRandom, DominantRevRandom, RandomPart) in Best and Schedule.
// Each heuristic draws from an independent substream derived from the
// seed and its position, never from execution order, so a fixed seed
// reproduces a fixed result at any worker count. The default is 0.
func WithSeed(seed uint64) ClientOption {
	return func(c *clientConfig) { c.seed = seed }
}

// NewClient returns a Client configured by the given options.
func NewClient(opts ...ClientOption) *Client {
	cfg := clientConfig{cache: true}
	for _, o := range opts {
		o(&cfg)
	}
	pcfg := portfolio.Config{Workers: cfg.workers}
	if cfg.cache {
		pcfg.Cache = portfolio.NewCache()
	}
	pcfg.Metrics = portfolio.NewMetrics(cfg.metrics)
	engine := portfolio.New(pcfg)
	return &Client{
		engine:     engine,
		heuristics: cfg.heuristics,
		seed:       cfg.seed,
		desMetrics: des.NewMetrics(cfg.metrics),
		selEnabled: cfg.selEnabled,
		sel: portfolio.NewSelector(portfolio.SelectorConfig{
			Engine:     engine,
			Ledger:     cfg.ledger,
			Thresholds: cfg.selTh,
			Metrics:    portfolio.NewSelectorMetrics(cfg.metrics),
		}),
	}
}

// Workers reports the size of the client's worker pool.
func (c *Client) Workers() int { return c.engine.Workers() }

// Engine exposes the client's underlying portfolio engine, for sharing
// it with lower-level consumers: the experiment sweeps
// (experiments.Config.Engine) use its worker pool and cache. Online
// policies never use it: they race on the simulating goroutine.
func (c *Client) Engine() *PortfolioEngine { return c.engine }

// Schedule computes a complete co-schedule for the workload with one
// heuristic, through the client's cache. Randomized heuristics draw
// from a substream of the client seed (see WithSeed); use
// Heuristic.Schedule directly to control the random stream per call.
// Failures carry the typed vocabulary: *ValidationError for bad inputs,
// *HeuristicError wrapping the failing policy, ctx.Err() when cancelled.
func (c *Client) Schedule(ctx context.Context, h Heuristic, pl Platform, apps []Application) (*Schedule, error) {
	rep, err := c.engine.EvaluateContext(ctx, PortfolioScenario{
		Platform: pl, Apps: apps, Heuristics: []Heuristic{h}, Seed: c.seed,
	})
	if err != nil {
		return nil, err
	}
	res := rep.Results[0]
	if res.Err != nil {
		return nil, res.Err
	}
	return res.Schedule, nil
}

// Best races the client's heuristic set (see WithHeuristics), one
// heuristic after another on the calling goroutine, and returns the
// schedule with the smallest makespan, plus the full per-heuristic
// report for audit. It returns ErrInfeasible when no heuristic produced
// a feasible schedule, and ctx.Err() — within one in-flight heuristic
// evaluation — when cancelled.
//
// On a client armed with WithSelector, Best serves the ledger's
// predicted winner when the prediction clears the confidence
// thresholds — the report then audits only that single heuristic —
// and races the full set otherwise.
func (c *Client) Best(ctx context.Context, pl Platform, apps []Application) (*Schedule, *PortfolioReport, error) {
	sc := PortfolioScenario{Platform: pl, Apps: apps, Heuristics: c.heuristics, Seed: c.seed}
	var rep *PortfolioReport
	var err error
	if c.selEnabled {
		var d *SelectorDecision
		d, err = c.Select(ctx, sc)
		if d != nil {
			rep = d.Report
		}
	} else {
		rep, err = c.Evaluate(ctx, sc)
	}
	if err != nil {
		return nil, rep, err
	}
	best := rep.BestResult()
	if best == nil {
		return nil, rep, ErrInfeasible
	}
	return best.Schedule, rep, nil
}

// Select evaluates one scenario through the predicted-winner-first
// selector: when the client's ledger (see WithSelector) confidently
// predicts a winner for the scenario's feature bucket, only that
// heuristic runs — on the exact RNG substream it would have drawn
// inside the full race, so the served schedule is bit-identical to its
// full-race lane — and otherwise the full portfolio races as in
// Evaluate. The Decision records which path was taken and why. On a
// client without WithSelector the ledger is empty, so every call falls
// back to the full race with FallbackReason "no-evidence".
func (c *Client) Select(ctx context.Context, sc PortfolioScenario) (*SelectorDecision, error) {
	if len(sc.Heuristics) == 0 {
		sc.Heuristics = c.heuristics
	}
	return c.sel.Select(ctx, sc)
}

// Evaluate races one fully-specified scenario on the calling goroutine
// and reports every heuristic's outcome. A scenario naming no heuristics
// inherits the client's set. The returned error is non-nil only for
// invalid scenarios and cancellation; per-heuristic failures land in
// the report.
func (c *Client) Evaluate(ctx context.Context, sc PortfolioScenario) (*PortfolioReport, error) {
	if len(sc.Heuristics) == 0 {
		sc.Heuristics = c.heuristics
	}
	return c.engine.EvaluateContext(ctx, sc)
}

// BatchResult is one scenario's outcome in a streaming EvaluateBatch:
// the scenario's position in the input stream and its full report.
type BatchResult struct {
	Index  int
	Report *PortfolioReport
}

// EvaluateBatch evaluates a stream of scenarios and emits one
// BatchResult per scenario, in input order, as each completes. The
// whole pipeline — pulling scenarios from the iterator, evaluating
// them on the worker pool, emitting reports — runs in bounded memory:
// at most 2×Workers scenarios are decoded-but-unemitted at any moment,
// so NDJSON-scale batches stream instead of buffering.
//
// Scenarios naming no heuristics inherit the client's set. A non-nil
// error from emit stops the batch and is returned; cancelling ctx stops
// it with ctx.Err() within one in-flight evaluation per scenario.
// Either way the iterator stops being pulled, in-flight evaluations are
// drained (no goroutines leak), and already-emitted results remain valid.
// Scenario-level validation failures land in the emitted report's Err
// field and do not stop the stream.
func (c *Client) EvaluateBatch(ctx context.Context, scenarios iter.Seq[PortfolioScenario], emit func(BatchResult) error) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// window bounds both the scenarios in flight (each races serially,
	// so at most Workers of them evaluate at once) and the completed
	// reports waiting for their turn in the ordered output.
	window := 2 * c.engine.Workers()
	pending := make(chan chan *PortfolioReport, window)
	go func() {
		defer close(pending)
		for sc := range scenarios {
			if len(sc.Heuristics) == 0 {
				sc.Heuristics = c.heuristics
			}
			done := make(chan *PortfolioReport, 1)
			select {
			case pending <- done: // blocks while the window is full
			case <-cctx.Done():
				return
			}
			go func(sc PortfolioScenario) {
				// The report channel is buffered: the evaluation can
				// always hand off its result and exit, even when the
				// consumer has already abandoned the batch.
				rep, _ := c.engine.EvaluateContext(cctx, sc)
				done <- rep
			}(sc)
		}
	}()

	var emitErr error
	idx := 0
	for done := range pending {
		rep := <-done
		if emitErr != nil || cctx.Err() != nil {
			continue // draining after a failure or cancellation
		}
		if err := emit(BatchResult{Index: idx, Report: rep}); err != nil {
			emitErr = err
			cancel() // stop the producer; the loop keeps draining
		}
		idx++
	}
	if emitErr != nil {
		return emitErr
	}
	return ctx.Err()
}

// SimulateOnline runs an online co-scheduling scenario to completion on
// the discrete-event simulator: jobs arrive over virtual time and the
// scenario's policy repartitions the node at every arrival and
// completion. Deterministic per seed and bit-identical across runs.
// The event loop polls ctx every few events and abandons a cancelled
// run with ctx.Err(). A portfolio repartition policy races on the
// calling goroutine and takes nothing from the client's engine, neither
// its worker slots nor its memoization cache: online residual
// workloads do not recur by name, and the policy memoizes recurring
// shapes itself.
func (c *Client) SimulateOnline(ctx context.Context, sc OnlineScenario) (*OnlineResult, error) {
	if sc.Metrics == nil {
		sc.Metrics = c.desMetrics
	}
	return des.SimulateContext(ctx, sc)
}

// SimulateFleet runs a multi-node fleet scenario to completion: every
// arrival is routed to one of the scenario's nodes by its routing
// policy, each node runs the single-node online simulator with its own
// platform and repartitioning policy, and the aggregate (routing log,
// per-node event logs, fleet-wide wait/response/stretch summaries) is
// returned. A scenario without Metrics inherits the client's
// instrumentation. Nodes advance serially, and "portfolio" node
// policies race on the calling goroutine as in SimulateOnline, so
// concurrent calls share nothing but the metrics. Deterministic per
// seed; cancellation aborts within a few arrivals with ctx.Err().
func (c *Client) SimulateFleet(ctx context.Context, sc FleetScenario) (*FleetResult, error) {
	if sc.Metrics == nil {
		sc.Metrics = c.desMetrics
	}
	return fleet.SimulateContext(ctx, sc)
}
