// Command dessim runs a discrete-event simulation of *online*
// co-scheduling on a cache-partitioned platform: jobs arrive over
// virtual time, and an online policy repartitions processors and cache
// at every arrival and completion (see internal/des).
//
// Usage:
//
//	dessim [flags]
//	dessim -scenario scenario.json
//	dessim -arrivals poisson:rate=0.002,n=64 -policy portfolio
//	dessim -arrivals batch:interval=0,size=6,n=6 -policy norepartition:DominantMinRatio
//
// The scenario JSON format is:
//
//	{"platform": {"processors": 256, "cacheSize": 32e9, "ls": 0.17,
//	   "ll": 1, "alpha": 0.5},
//	 "apps": [{"name": "CG", "work": 5.7e10, "seq": 0.05, "freq": 0.535,
//	   "missRate": 6.59e-4, "refCache": 4e7}, ...],
//	 "arrivals": {"process": "poisson", "rate": 0.002, "n": 64},
//	 "policy": "DominantMinRatio", "duration": 0, "maxResident": 8,
//	 "seed": 42}
//
// Flags override the corresponding scenario fields; without -scenario
// the built-in NPB template applications are used. Arrival processes:
// poisson, ipoisson (sinusoidal intensity via thinning), gamma
// (bursts), batch, replay (explicit times in JSON) and trace (gaps
// derived from an internal/trace access stream). Policies: any
// concurrent heuristic name, "portfolio", or "norepartition[:H]".
//
// Output is NDJSON on stdout: one line per event (arrival, start,
// finish, repartition) followed by one summary line ("kind":
// "summary"). -events=false suppresses the event stream; -gantt draws
// an ASCII timeline of waits and runs on stderr.
//
// With -fleet the scenario is a multi-node fleet spec (see
// internal/fleet): a node list, a routing policy and one fleet-wide
// arrival stream. Every arrival is routed to a node — least-loaded,
// cache-affinity, power-of-two-choices or join-shortest-queue — and
// each node runs the single-node simulator with its own platform and
// policy. Output becomes one "route" line per routing decision, one
// "node" line per node and a trailing "fleet-summary" line:
//
//	dessim -fleet -scenario fleet.json
//	dessim -fleet -routing cache-affinity -arrivals poisson:rate=0.002,n=64
//
// Without -scenario, -fleet simulates two identical TaihuLight nodes
// over the NPB templates. -policy, -maxresident and -gantt are
// single-node flags and are rejected with -fleet (use the spec's
// per-node fields). With -fleet, -selector backs the spec's
// "portfolio:selector" nodes and fails when there are none.
//
// Observability: -json appends one "kind": "metrics" NDJSON line with
// the simulator's metrics snapshot; -metrics FILE writes the Prometheus text
// exposition; -trace FILE writes the simulator's span/event log as
// NDJSON; -debug-addr HOST:PORT serves /metrics, /debug/pprof/* and
// /debug/vars while the run is in flight; -cpuprofile/-memprofile
// write pprof profiles. All of these are off by default and cost
// nothing when unset — instrumentation only records, so an
// instrumented run's event stream is bit-identical to a bare one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/selector"
	"repro/internal/serve"
	"repro/internal/sim"
)

func main() {
	// Ctrl-C cancels the context; the simulator's event loop polls it
	// every few events, so even very long online runs exit promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// After the first signal cancels ctx, restore the default
		// disposition so a second Ctrl-C force-kills even if some path
		// cannot observe the cancellation (e.g. blocked on stdin).
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dessim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out, errOut io.Writer) (err error) {
	fs := flag.NewFlagSet("dessim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		scenario  = fs.String("scenario", "", "scenario JSON file ('-' reads stdin)")
		arrivals  = fs.String("arrivals", "", `arrival spec, e.g. "poisson:rate=0.002,n=64" (overrides scenario)`)
		policy    = fs.String("policy", "", `online policy: heuristic name, "portfolio" or "norepartition[:H]" (overrides scenario)`)
		duration  = fs.Float64("duration", -1, "cut off arrivals after this virtual time (-1 keeps scenario value, 0 = no cutoff)")
		maxRes    = fs.Int("maxresident", -1, "max jobs sharing the node, rest queue FIFO (-1 keeps scenario value, 0 = unlimited)")
		seedFlag  = fs.Uint64("seed", 0, "seed for arrivals and randomized policies (0 keeps scenario value)")
		fleetRun  = fs.Bool("fleet", false, "simulate a multi-node fleet (scenario JSON is the fleet spec format)")
		routing   = fs.String("routing", "", "fleet routing policy: least-loaded, cache-affinity, power-of-two-choices or join-shortest-queue (overrides scenario)")
		ledgerP   = fs.String("selector", "", `win-rate ledger JSON backing a "portfolio:selector" policy (see cmd/ledger)`)
		events    = fs.Bool("events", true, "stream one NDJSON line per event")
		gantt     = fs.Bool("gantt", false, "draw an ASCII wait/run timeline on stderr")
		jsonOut   = fs.Bool("json", false, `append one "kind":"metrics" NDJSON line with the full metrics snapshot`)
		promPath  = fs.String("metrics", "", "write the Prometheus text exposition to this file on exit")
		tracePath = fs.String("trace", "", "write the simulator span/event log to this file as NDJSON")
		debugAddr = fs.String("debug-addr", "", `serve /metrics, /debug/pprof/* and /debug/vars on this address (e.g. "localhost:6060")`)
	)
	prof := obs.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if e := prof.Stop(); err == nil {
			err = e
		}
	}()

	if *routing != "" && !*fleetRun {
		return fmt.Errorf("-routing requires -fleet")
	}
	if *fleetRun && (*policy != "" || *maxRes >= 0 || *gantt) {
		return fmt.Errorf("-policy, -maxresident and -gantt are single-node flags; with -fleet use the fleet spec's per-node fields")
	}

	// Both spec formats carry the arrival stream, cutoff and seed the
	// shared flags override.
	var (
		sp   *des.Spec
		fsp  *fleet.Spec
		arr  *des.ArrivalSpec
		dur  *float64
		seed *uint64
	)
	if *fleetRun {
		// The default fleet is two identical TaihuLight nodes.
		if fsp, err = loadSpec(*scenario, &fleet.Spec{Nodes: []fleet.NodeSpec{{}, {}}}, fleet.DecodeSpec); err != nil {
			return err
		}
		arr, dur, seed = &fsp.Arrivals, &fsp.Duration, &fsp.Seed
		if *routing != "" {
			fsp.Routing = *routing
		}
	} else {
		if sp, err = loadSpec(*scenario, &des.Spec{}, des.DecodeSpec); err != nil {
			return err
		}
		arr, dur, seed = &sp.Arrivals, &sp.Duration, &sp.Seed
		if *policy != "" {
			sp.Policy = *policy
		}
		if *maxRes >= 0 {
			sp.MaxResident = *maxRes
		}
	}
	if *arrivals != "" {
		if *arr, err = des.ParseArrivalSpec(*arrivals); err != nil {
			return err
		}
	}
	if *duration >= 0 {
		*dur = *duration
	}
	if *seedFlag != 0 {
		*seed = *seedFlag
	}

	// Instrumentation is opt-in: the registry exists only when some flag
	// will consume it, so the default run stays zero-overhead.
	var reg *obs.Registry
	if *jsonOut || *promPath != "" || *tracePath != "" || *debugAddr != "" {
		reg = obs.NewRegistry()
	}
	var ds *obs.DebugServer
	if *debugAddr != "" {
		ds, err = obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer ds.Close() // error paths only; Close is idempotent
		fmt.Fprintf(errOut, "dessim: debug listener on http://%s\n", ds.Addr())
	}

	// The run reports on its own des metrics: policies race on this
	// goroutine, outside any portfolio engine, so no other layer can
	// record anything.
	m := des.NewMetrics(reg)
	if m != nil && *tracePath != "" {
		m.Tracer = obs.NewTracer(0)
	}

	// emit writes the run's NDJSON lines and returns its replan totals;
	// spans are a single-node run's jobs for -gantt.
	var emit func(*json.Encoder) (des.ReplanStats, error)
	var spans []sim.Span
	if *fleetRun {
		sc, err := fsp.Build(0)
		if err != nil {
			return err
		}
		if *ledgerP != "" {
			if sc.Ledger, err = selector.LoadFile(*ledgerP); err != nil {
				return err
			}
			// The ledger reaches only nodes whose policy has a
			// learned-selection mode; one it reaches nowhere is a misuse,
			// as in single-node mode.
			selecting := false
			for _, n := range sc.Nodes {
				pol, err := des.ParsePolicy(n.Policy, 0)
				selecting = selecting || err == nil && des.ConfigureSelector(pol, sc.Ledger, selector.Thresholds{})
			}
			if !selecting {
				return fmt.Errorf(`-selector: no fleet node has a learned-selection policy (set a node's "policy" to "portfolio:selector")`)
			}
		}
		sc.Metrics, sc.NoEvents = m, true // the output has no node event
		res, err := fleet.SimulateContext(ctx, sc)
		if err != nil {
			return err
		}
		emit = func(enc *json.Encoder) (des.ReplanStats, error) { return emitFleet(enc, sc, res, *events) }
	} else {
		sc, err := sp.Build()
		if err != nil {
			return err
		}
		if *ledgerP != "" {
			// -selector implies the learned-selection policy unless the
			// spec or -policy already chose one explicitly.
			if sp.Policy == "" || sp.Policy == "portfolio" {
				sp.Policy = "portfolio:selector"
				if sc, err = sp.Build(); err != nil {
					return err
				}
			}
			ledger, err := selector.LoadFile(*ledgerP)
			if err != nil {
				return err
			}
			if !des.ConfigureSelector(sc.Policy, ledger, selector.Thresholds{}) {
				return fmt.Errorf("-selector: policy %q has no learned-selection mode (use -policy portfolio:selector)", sc.Policy.Name())
			}
		}
		sc.Metrics, sc.NoEvents = m, !*events
		res, err := des.SimulateContext(ctx, sc)
		if err != nil {
			return err
		}
		emit = func(enc *json.Encoder) (des.ReplanStats, error) { return emitNode(enc, sc, res) }
		if *gantt {
			for _, j := range res.Jobs {
				spans = append(spans, sim.Span{Name: j.Name, Arrival: j.Arrival, Start: j.Start, Finish: j.Finish})
			}
		}
	}

	// Drain-then-flush: let any in-flight scrape finish against the
	// final metric state before the summary is emitted and the process
	// exits, so a scraper polling the run never reads a torn exposition.
	if err := ds.Close(); err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	replan, err := emit(enc)
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := enc.Encode(metricsJSON{Kind: "metrics", Replan: replan, Samples: reg.Snapshot()}); err != nil {
			return err
		}
	}
	if *promPath != "" {
		if err := writeFile(*promPath, reg.WriteProm); err != nil {
			return err
		}
	}
	if *tracePath != "" {
		if err := writeFile(*tracePath, m.Tracer.WriteNDJSON); err != nil {
			return err
		}
	}
	if *gantt {
		return sim.RenderTimeline(errOut, spans, 60)
	}
	return nil
}

// emitNode writes a single-node run: one line per logged event (none
// with -events=false, whose run keeps no log) and the summary line.
func emitNode(enc *json.Encoder, sc des.Scenario, res *des.Result) (des.ReplanStats, error) {
	for _, ev := range res.Events {
		if err := enc.Encode(eventJSON{
			Seq: ev.Seq, Time: ev.Time, Kind: ev.Kind.String(),
			Job: ev.Job, Name: ev.Name, Resident: ev.Resident, Queued: ev.Queued,
		}); err != nil {
			return res.Replan, err
		}
	}
	return res.Replan, enc.Encode(summaryJSON{Kind: "summary", SummaryWire: serve.SummaryOf(sc, res)})
}

// emitFleet writes a fleet run: one "route" line per routing decision
// (unless events is off), one "node" line per node and the trailing
// "fleet-summary" line.
func emitFleet(enc *json.Encoder, sc fleet.Scenario, res *fleet.Result, events bool) (des.ReplanStats, error) {
	if events {
		for _, rt := range res.Routes {
			if err := enc.Encode(routeJSON{
				Kind: "route", Job: rt.Job, Time: rt.Time,
				Node: rt.Node, Name: res.Nodes[rt.Node].Name,
			}); err != nil {
				return des.ReplanStats{}, err
			}
		}
	}
	sum := serve.FleetSummaryOf(sc, res)
	for _, n := range sum.Nodes {
		if err := enc.Encode(nodeJSON{Kind: "node", FleetNodeWire: n}); err != nil {
			return sum.Replan, err
		}
	}
	return sum.Replan, enc.Encode(fleetSummaryJSON{
		Kind: "fleet-summary", Routing: sum.Routing, Arrivals: sum.Arrivals,
		Nodes: len(sum.Nodes), FleetSummaryWire: sum,
	})
}

// loadSpec decodes the scenario file ('-' reads stdin), or returns
// the flag-driven default when no file is given.
func loadSpec[T any](path string, def *T, decode func(io.Reader) (*T, error)) (*T, error) {
	if path == "" {
		return def, nil
	}
	if path == "-" {
		return decode(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decode(f)
}

// metricsJSON is the trailing machine-readable line emitted by -json:
// the replan telemetry plus every metric sample of the run.
type metricsJSON struct {
	Kind    string          `json:"kind"`
	Replan  des.ReplanStats `json:"replan"`
	Samples []obs.Sample    `json:"samples"`
}

// writeFile runs write on the named file ('-' writes stdout).
func writeFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// eventJSON is the NDJSON wire form of one log event.
type eventJSON struct {
	Seq      int     `json:"seq"`
	Time     float64 `json:"t"`
	Kind     string  `json:"kind"`
	Job      int     `json:"job"`
	Name     string  `json:"name,omitempty"`
	Resident int     `json:"resident"`
	Queued   int     `json:"queued"`
}

// summaryJSON is the final NDJSON line of a run: the /v1/simulate
// response body, tagged with its kind.
type summaryJSON struct {
	Kind string `json:"kind"`
	serve.SummaryWire
}

// routeJSON is the NDJSON wire form of one routing decision.
type routeJSON struct {
	Kind string  `json:"kind"`
	Job  int     `json:"job"`
	Time float64 `json:"t"`
	Node int     `json:"node"`
	Name string  `json:"name"`
}

// nodeJSON is one node's entry of the /v1/simulate-fleet response,
// tagged with its kind.
type nodeJSON struct {
	Kind string `json:"kind"`
	serve.FleetNodeWire
}

// fleetSummaryJSON is the final NDJSON line of a fleet run: the
// /v1/simulate-fleet response with a node count in place of the node
// list. The outer fields shadow the wire's own routing, arrivals and
// nodes (encoding/json keeps the shallowest field of a name), which
// keeps them ahead of the aggregates.
type fleetSummaryJSON struct {
	Kind     string `json:"kind"`
	Routing  string `json:"routing"`
	Arrivals string `json:"arrivals"`
	Nodes    int    `json:"nodes"`
	serve.FleetSummaryWire
}
