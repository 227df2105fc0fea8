// Command cosched computes a co-schedule for a set of applications on a
// cache-partitioned platform and prints the resource assignment,
// per-application finish times and (optionally) the Intel CAT way masks
// realizing the cache partition.
//
// Usage:
//
//	cosched [flags]
//	cosched -apps apps.json -heuristic DominantMinRatio -ways 20
//	cosched -portfolio
//	cosched -batch scenarios.json -workers 8
//
// Without -apps the built-in NPB workload of the paper's Table 2 is used.
// The JSON application format is an array of objects:
//
//	[{"name": "CG", "work": 5.7e10, "seq": 0.05, "freq": 0.535,
//	  "missRate": 6.59e-4, "refCache": 4e7, "footprint": 0}, ...]
//
// With -portfolio every heuristic is raced, one after another, and the
// best schedule wins; the ranking is printed and the winner feeds the
// remaining output sections (-ways, -int, -sim, -json).
//
// With -batch the input is an array (or NDJSON stream) of scenarios
// served in one invocation ('-' reads stdin), up to -workers at once;
// one NDJSON report line is streamed per scenario, in input order, as
// each completes — long batches run in bounded memory. Scenario fields
// "platform", "heuristics" and "seed" are optional and default to the
// flag values:
//
//	[{"platform": {"processors": 256, "cacheSize": 32e9, "ls": 0.17,
//	   "ll": 1, "alpha": 0.5},
//	  "apps": [...], "heuristics": ["DominantMinRatio", "Fair"],
//	  "seed": 42}, ...]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"text/tabwriter"

	repro "repro"
	"repro/internal/cat"
	"repro/internal/des"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/selector"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/solve"
	"repro/internal/workload"
)

// The application and platform wire formats are shared with the online
// simulator's scenario schema (internal/des), so the two CLIs accept
// the same JSON and cannot drift apart.

func main() {
	// Ctrl-C cancels the context; the v2 client returns ctx.Err()
	// within one in-flight heuristic evaluation, so long batches exit
	// cleanly instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// After the first signal cancels ctx, restore the default
		// disposition so a second Ctrl-C force-kills even if some path
		// cannot observe the cancellation (e.g. blocked on stdin).
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cosched:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("cosched", flag.ContinueOnError)
	var (
		debugAddr = fs.String("debug-addr", "", `serve /metrics, /debug/pprof/* and /debug/vars on this address (e.g. "localhost:6060")`)
		appsPath  = fs.String("apps", "", "JSON file of applications (default: built-in NPB Table 2)")
		heuristic = fs.String("heuristic", "DominantMinRatio", "scheduling policy (see -list)")
		list      = fs.Bool("list", false, "list available heuristics and exit")
		procs     = fs.Float64("p", 256, "processor count")
		cache     = fs.Float64("cache", 32000e6, "LLC size in bytes")
		ls        = fs.Float64("ls", 0.17, "cache access latency")
		ll        = fs.Float64("ll", 1, "cache miss (memory) latency")
		alpha     = fs.Float64("alpha", 0.5, "power-law sensitivity exponent")
		seq       = fs.Float64("seq", 0, "override sequential fraction for every application (0 keeps input values)")
		ways      = fs.Int("ways", 0, "if > 0, also print Intel CAT way masks for that many LLC ways")
		seed      = fs.Uint64("seed", 42, "seed for randomized heuristics")
		simulate  = fs.Bool("sim", false, "cross-check with the discrete-event simulator")
		gantt     = fs.Bool("gantt", false, "draw an ASCII Gantt chart of the execution")
		jsonOut   = fs.String("json", "", "write the schedule as JSON to this file ('-' for stdout)")
		integer   = fs.Bool("int", false, "also round to whole processors and report the cost")
		local     = fs.Bool("localsearch", false, "refine with Amdahl-aware membership local search")
		port      = fs.Bool("portfolio", false, "race every heuristic and keep the best schedule")
		workers   = fs.Int("workers", 0, "scenarios of a -batch raced at once (0 = GOMAXPROCS); one race is serial")
		batch     = fs.String("batch", "", "JSON file of scenarios to serve in one invocation ('-' for stdin)")
		telem     = fs.String("telemetry", "", "append per-heuristic win/loss/margin NDJSON from every full race to this file ('-' for stderr); cmd/ledger ingests it")
		selPath   = fs.String("selector", "", "trained ledger file for -portfolio: serve the predicted winner first, race only on doubt")
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

	if *list {
		for _, h := range sched.ExtendedHeuristics {
			fmt.Fprintln(out, h)
		}
		return nil
	}

	if *local && *port {
		return fmt.Errorf("-localsearch cannot be combined with -portfolio: LocalSearch is already one of the raced heuristics")
	}
	pl := model.Platform{Processors: *procs, CacheSize: *cache, LatencyS: *ls, LatencyL: *ll, Alpha: *alpha}
	var reg *obs.Registry
	var ds *obs.DebugServer
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		ds, err = obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer ds.Close() // error paths only; Close is idempotent
		fmt.Fprintf(os.Stderr, "cosched: debug listener on http://%s\n", ds.Addr())
	}
	copts := []repro.ClientOption{repro.WithWorkers(*workers), repro.WithMetrics(reg)}
	if *selPath != "" {
		if !*port || *batch != "" {
			return fmt.Errorf("-selector requires -portfolio (and is not supported with -batch): the selector chooses among the raced heuristics")
		}
		led, err := selector.LoadFile(*selPath)
		if err != nil {
			return err
		}
		copts = append(copts, repro.WithSelector(led, repro.SelectorThresholds{}))
	}
	client := repro.NewClient(copts...)

	telw, err := openTelemetry(*telem)
	if err != nil {
		return err
	}
	defer func() {
		if e := telw.Close(); err == nil {
			err = e
		}
	}()

	if *batch != "" {
		if err := runBatch(ctx, client, *batch, pl, *seed, out, telw); err != nil {
			return err
		}
		// Drain-then-exit: the report stream is already flushed, so let
		// any in-flight scrape of the final metric state complete before
		// the listener goes away with the process.
		return ds.Close()
	}

	apps, err := loadApps(*appsPath)
	if err != nil {
		return err
	}
	if *seq > 0 {
		for i := range apps {
			apps[i].SeqFraction = *seq
		}
	}

	// Validate -heuristic even in portfolio mode, so a typo is an error
	// rather than silently shadowed by the race over all heuristics.
	h, err := sched.ParseHeuristic(*heuristic)
	if err != nil {
		return err
	}
	var s *sched.Schedule
	var label string
	if *port {
		sc := repro.PortfolioScenario{Platform: pl, Apps: apps, Seed: *seed}
		var rep *repro.PortfolioReport
		if *selPath != "" {
			d, err := client.Select(ctx, sc)
			if err != nil {
				return err
			}
			rep = d.Report
			if d.Predicted {
				fmt.Fprintf(out, "selector: served predicted winner %v (win rate %.0f%%, %d races)\n",
					d.Prediction.Heuristic, 100*d.Prediction.WinRate, d.Prediction.Races)
			} else {
				fmt.Fprintf(out, "selector: full race (%s)\n", d.FallbackReason)
			}
		} else if rep, err = client.Evaluate(ctx, sc); err != nil {
			return err
		}
		// Only genuine races train a ledger: a served prediction is a
		// one-heuristic report and carries no win/loss evidence.
		if telw != nil && len(rep.Results) > 1 {
			if err := telw.record(selector.Extract(pl, apps).Bucket(), rep); err != nil {
				return err
			}
		}
		if err := writeRanking(out, rep); err != nil {
			return err
		}
		best := rep.BestResult()
		if best == nil {
			return fmt.Errorf("no heuristic produced a feasible schedule")
		}
		s, label = best.Schedule, best.Heuristic.String()
	} else {
		// The direct path keeps the historical RNG derivation (stream
		// seeded with -seed itself), so single-heuristic output is
		// bit-identical to every earlier release.
		if s, err = h.ScheduleContext(ctx, pl, apps, solve.NewRNG(*seed)); err != nil {
			return err
		}
		label = h.String()
	}
	if *local {
		refined, err := sched.LocalSearchScheduleContext(ctx, pl, apps, sched.LocalSearchOptions{}, solve.NewRNG(*seed))
		if err != nil {
			return err
		}
		if refined.Makespan < s.Makespan {
			fmt.Fprintf(out, "local search improved %s by %.2f%%\n", label, 100*(1-refined.Makespan/s.Makespan))
			s, label = refined, label+"+LocalSearch"
		} else {
			fmt.Fprintf(out, "local search found no improvement over %s\n", label)
		}
	}

	fmt.Fprintf(out, "heuristic: %v   platform: p=%g Cs=%.3g ls=%g ll=%g α=%g\n\n", label, pl.Processors, pl.CacheSize, pl.LatencyS, pl.LatencyL, pl.Alpha)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tprocessors\tcache share\tfinish time")
	ft := s.FinishTimes(pl, apps)
	for i, a := range apps {
		fmt.Fprintf(tw, "%s\t%.3f\t%.4f\t%.4g\n", a.Name, s.Assignments[i].Processors, s.Assignments[i].CacheShare, ft[i])
	}
	tw.Flush()
	fmt.Fprintf(out, "\nmakespan: %.6g\n", s.Makespan)

	if *ways > 0 {
		shares := make([]float64, len(s.Assignments))
		for i, a := range s.Assignments {
			shares[i] = a.CacheShare
		}
		alloc, err := cat.Partition(shares, *ways)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nCAT realization on %d ways (max rounding error %.4f):\n", *ways, alloc.MaxError)
		for i, a := range apps {
			fmt.Fprintf(out, "  %-8s %s (%d ways)\n", a.Name, cat.FormatMask(alloc.Masks[i], *ways), alloc.WayCounts[i])
		}
	}

	if *integer {
		ri, err := sched.RoundProcessors(pl, apps, s)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwhole-processor realization (makespan ×%.4f):\n", ri.Degradation)
		for i, a := range apps {
			fmt.Fprintf(out, "  %-8s %4d procs\n", a.Name, ri.Processors[i])
		}
	}

	if *simulate || *gantt {
		res, err := sim.Execute(pl, apps, s, sim.Static)
		if err != nil {
			return err
		}
		if *simulate {
			fmt.Fprintf(out, "\nDES cross-check: simulated makespan %.6g, utilization %.1f%%\n",
				res.Makespan, 100*res.ProcessorTime/(pl.Processors*res.Makespan))
		}
		if *gantt {
			fmt.Fprintln(out)
			if err := sim.RenderGantt(out, pl, apps, s, res, 60); err != nil {
				return err
			}
		}
	}

	// Drain-then-flush: every compute phase is done and the metrics are
	// final; finish in-flight scrapes before the last artifact is
	// written and the process exits.
	if err := ds.Close(); err != nil {
		return err
	}

	if *jsonOut != "" {
		w := out
		var closer io.Closer
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			w, closer = f, f
		} else {
			fmt.Fprintln(out)
		}
		if err := sched.WriteJSON(w, label, pl, apps, s); err != nil {
			return err
		}
		if closer != nil {
			if err := closer.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeRanking prints the portfolio outcome ordered by makespan, best
// first, with each heuristic's slowdown relative to the winner. Failed
// heuristics and NaN makespans (which the engine never selects as best)
// sort last and carry no ratio.
func writeRanking(out io.Writer, rep *repro.PortfolioReport) error {
	unrankable := func(r repro.PortfolioResult) bool {
		return r.Err != nil || math.IsNaN(r.Schedule.Makespan)
	}
	order := make([]int, len(rep.Results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := rep.Results[order[a]], rep.Results[order[b]]
		switch {
		case unrankable(ra):
			return false
		case unrankable(rb):
			return true
		}
		return ra.Schedule.Makespan < rb.Schedule.Makespan
	})
	best := rep.BestSchedule()
	fmt.Fprintf(out, "portfolio: %d heuristics raced\n", len(rep.Results))
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\theuristic\tmakespan\tvs best")
	for rank, i := range order {
		r := rep.Results[i]
		switch {
		case r.Err != nil:
			fmt.Fprintf(tw, "-\t%v\terror: %v\t\n", r.Heuristic, r.Err)
		case best == nil || math.IsNaN(r.Schedule.Makespan):
			fmt.Fprintf(tw, "-\t%v\t%.6g\t\n", r.Heuristic, r.Schedule.Makespan)
		default:
			fmt.Fprintf(tw, "%d\t%v\t%.6g\t×%.4f\n", rank+1, r.Heuristic, r.Schedule.Makespan, r.Schedule.Makespan/best.Makespan)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return nil
}

// runBatch serves every scenario of the batch input through the v2
// client's streaming batch evaluator: one NDJSON report line per
// scenario, in input order, as each completes. Decoding, evaluation and
// output form a bounded pipeline (Client.EvaluateBatch caps the
// decoded-but-unreported window at 2×workers), so arbitrarily long
// scenario streams run in bounded memory instead of buffering the whole
// input array and the whole output array. The input may be a JSON array
// of scenarios or an NDJSON stream of scenario objects.
//
// A malformed scenario or unknown heuristic name aborts the batch at
// the point it is decoded; reports already streamed stay valid.
// Cancelling ctx (Ctrl-C) aborts with ctx.Err().
func runBatch(ctx context.Context, client *repro.Client, path string, defaultPl model.Platform, defaultSeed uint64, out io.Writer, tw *telemetryWriter) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	// The decoder is the scenario iterator: EvaluateBatch pulls it
	// exactly as fast as the evaluation window allows, and stops pulling
	// on failure or cancellation. Its error is read only after
	// EvaluateBatch returns (which happens-after the iterator finished).
	// Each scenario's feature bucket is computed at decode time and kept
	// (a short string, not the scenario), so telemetry can label reports
	// by index without holding the batch in memory.
	var decodeErr error
	var buckets []string
	scenarios := func(yield func(repro.PortfolioScenario) bool) {
		decodeErr = serve.DecodeScenarios(r, path, serve.Defaults{Platform: defaultPl, Seed: defaultSeed}, func(sc repro.PortfolioScenario) bool {
			if tw != nil {
				buckets = append(buckets, selector.Extract(sc.Platform, sc.Apps).Bucket())
			}
			return yield(sc)
		})
	}
	enc := json.NewEncoder(out)
	if err := client.EvaluateBatch(ctx, scenarios, func(br repro.BatchResult) error {
		if tw != nil && br.Index < len(buckets) {
			if err := tw.record(buckets[br.Index], br.Report); err != nil {
				return err
			}
		}
		// The service's wire form, plus the cache-provenance bit the
		// service deliberately leaves out.
		rw := serve.ReportOf(br.Report)
		for i := range rw.Results {
			rw.Results[i].FromCache = br.Report.Results[i].FromCache
		}
		return enc.Encode(rw)
	}); err != nil {
		return err
	}
	return decodeErr
}

// telemetryWriter streams selector.RaceRecord NDJSON lines — the
// ledger's ingest format (cmd/ledger train -telemetry) — one line per
// (heuristic, race). A nil writer is valid and records nothing.
type telemetryWriter struct {
	enc    *json.Encoder
	closer io.Closer
}

// openTelemetry opens the telemetry sink: "" means off (nil writer),
// "-" streams to stderr (stdout carries the reports), anything else
// appends to the named file so successive runs accumulate evidence.
func openTelemetry(path string) (*telemetryWriter, error) {
	if path == "" {
		return nil, nil
	}
	if path == "-" {
		return &telemetryWriter{enc: json.NewEncoder(os.Stderr)}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &telemetryWriter{enc: json.NewEncoder(f), closer: f}, nil
}

// record emits one race's records, labeling them with the workload's
// feature bucket.
func (t *telemetryWriter) record(bucket string, rep *repro.PortfolioReport) error {
	if t == nil || rep == nil || rep.Err != nil {
		return nil
	}
	for _, rr := range selector.Race(bucket, rep.Outcomes()) {
		if err := t.enc.Encode(rr); err != nil {
			return err
		}
	}
	return nil
}

func (t *telemetryWriter) Close() error {
	if t == nil || t.closer == nil {
		return nil
	}
	return t.closer.Close()
}

// loadApps reads the JSON fleet at path, or returns the built-in NPB
// workload when path is empty.
func loadApps(path string) ([]model.Application, error) {
	if path == "" {
		return workload.NPB(), nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var in []des.AppSpec
	if err := json.Unmarshal(raw, &in); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	apps := make([]model.Application, 0, len(in))
	for _, a := range in {
		apps = append(apps, a.Application())
	}
	return apps, nil
}
