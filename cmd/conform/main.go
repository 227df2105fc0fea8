// Command conform runs the differential-testing conformance harness
// over every scheduling layer of the repository: seeded scenario
// families (internal/genscen) are evaluated by the static heuristics,
// the portfolio engine, the brute-force oracle and the online
// discrete-event simulator, and the layers are cross-checked against
// each other (see internal/conform for the check catalogue).
//
// Usage:
//
//	conform -seeds 100                       # full sweep, markdown report
//	conform -seeds 100 -format ndjson        # machine-readable report
//	conform -families zero-work -seeds 1 -seed 27
//	                                         # reproduce one scenario
//	conform -golden internal/conform/testdata/golden.json
//	                                         # regression-check committed digests
//	conform -golden ... -update              # re-baseline the corpus
//
// With -fleet the harness instead sweeps the multi-node fleet families
// (internal/fleet behind internal/genscen's fleet generators), checking
// routing determinism across worker counts, the single-node reduction
// to internal/des and the fleet-vs-best-solo stretch invariant, against
// its own golden corpus:
//
//	conform -fleet -seeds 4
//	conform -fleet -golden internal/conform/testdata/golden_fleet.json
//	conform -fleet -golden ... -update
//
// The exit status is 0 only when every cross-check passed (and, with
// -golden, every digest matched). A failing seed prints a one-line
// reproduction command.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/internal/conform"
	"repro/internal/genscen"
	"repro/internal/obs"
	"repro/internal/selector"
)

func main() {
	// Ctrl-C cancels the context; the sweep stops within one scenario.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// After the first signal cancels ctx, restore the default
		// disposition so a second Ctrl-C force-kills even if some path
		// cannot observe the cancellation (e.g. blocked on stdin).
		<-ctx.Done()
		stop()
	}()
	code, err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "conform:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// run executes the CLI; it returns the process exit code plus any
// usage/configuration error (violations set the code, not the error).
func run(ctx context.Context, args []string, out, errOut io.Writer) (int, error) {
	fs := flag.NewFlagSet("conform", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		seeds     = fs.Int("seeds", 10, "scenarios per family")
		baseSeed  = fs.Uint64("seed", 1, "first seed (seed values are seed, seed+1, …)")
		families  = fs.String("families", "", "comma-separated family list (default: all)")
		workers   = fs.Int("workers", 8, "worker count of the parallel determinism arm")
		grid      = fs.Int("grid", 6, "oracle cache-share grid steps")
		oracleMax = fs.Int("oracle-max", 5, "largest instance handed to the brute-force oracle")
		minApps   = fs.Int("min-apps", 0, "min applications per instance (0 = default 2)")
		maxApps   = fs.Int("max-apps", 0, "max applications per instance (0 = default 6)")
		format    = fs.String("format", "markdown", `report format: "markdown" or "ndjson"`)
		golden    = fs.String("golden", "", "golden digest corpus to check against (JSON path)")
		update    = fs.Bool("update", false, "with -golden: rewrite the corpus from this run")
		fleetRun  = fs.Bool("fleet", false, "sweep the fleet families (multi-node routing checks) instead of the single-node harness")
		ledger    = fs.String("selector", "", "trained ledger file: add the learned-selection checks (decision determinism across workers, audited gap bound on oracle-exact families)")
		gapBound  = fs.Float64("selector-gap-bound", 0, "audited-gap bound for served predictions on oracle-exact families (0 = committed default)")
		debugAddr = fs.String("debug-addr", "", `serve /metrics, /debug/pprof/* and /debug/vars on this address (e.g. "localhost:6060")`)
	)
	prof := obs.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil // usage already printed; -h is not a failure
		}
		return 2, err
	}
	if err := prof.Start(); err != nil {
		return 2, err
	}
	defer func() {
		if e := prof.Stop(); e != nil {
			fmt.Fprintln(errOut, "conform:", e)
		}
	}()
	if *format != "markdown" && *format != "ndjson" {
		return 2, fmt.Errorf("unknown format %q (want markdown or ndjson)", *format)
	}
	if *update && *golden == "" {
		return 2, fmt.Errorf("-update requires -golden <path> (nothing to write otherwise)")
	}
	if *seeds < 1 {
		return 2, fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
	}
	if *ledger != "" && *fleetRun {
		return 2, fmt.Errorf("-selector applies to the single-node harness, not -fleet")
	}
	var metrics *obs.Registry
	var ds *obs.DebugServer
	if *debugAddr != "" {
		metrics = obs.NewRegistry()
		var err error
		ds, err = obs.ServeDebug(*debugAddr, metrics)
		if err != nil {
			return 2, err
		}
		defer ds.Close() // error paths only; Close is idempotent
		fmt.Fprintf(errOut, "conform: debug listener on http://%s\n", ds.Addr())
	}

	if *fleetRun {
		return runFleet(ctx, fleetArgs{
			seeds: *seeds, baseSeed: *baseSeed, families: *families,
			workers: *workers, format: *format, golden: *golden, update: *update,
			metrics: metrics, debug: ds,
		}, out, errOut)
	}

	fams, err := genscen.ParseFamilies(*families)
	if err != nil {
		return 2, err
	}
	var led *selector.Ledger
	if *ledger != "" {
		led, err = selector.LoadFile(*ledger)
		if err != nil {
			return 2, err
		}
	}
	opt := conform.Options{
		Seeds:            *seeds,
		BaseSeed:         *baseSeed,
		Families:         fams,
		Workers:          *workers,
		Grid:             *grid,
		OracleMaxApps:    *oracleMax,
		Gen:              genscen.Config{MinApps: *minApps, MaxApps: *maxApps},
		Metrics:          metrics,
		Selector:         led,
		SelectorGapBound: *gapBound,
	}

	// A golden check must regenerate exactly the corpus's scenarios, so
	// its recorded parameters (including the family set, derived from
	// the stored digests) override the flags; only the worker count
	// stays ours, because digests are worker-invariant by construction.
	var gold *conform.Golden
	if *golden != "" && !*update {
		gold, err = conform.LoadGolden(*golden)
		if err != nil {
			return 2, err
		}
		gopt := gold.Options()
		gopt.Workers = opt.Workers
		gopt.Metrics = opt.Metrics // digests are metrics-invariant by construction
		// The selector rides along: its checks never touch the digests,
		// so a -selector run validates against the same corpus.
		gopt.Selector = opt.Selector
		gopt.SelectorGapBound = opt.SelectorGapBound
		opt = gopt
		// The override is easy to misread as "my flags applied"; say
		// what actually runs.
		fmt.Fprintf(errOut, "conform: checking against %s: using its recorded parameters (seeds=%d baseSeed=%d grid=%d oracleMaxApps=%d, %d families); generation flags are ignored in check mode\n",
			*golden, gopt.Seeds, gopt.BaseSeed, gopt.Grid, gopt.OracleMaxApps, len(gopt.Families))
	}

	rep, err := conform.RunContext(ctx, opt)
	if err != nil {
		return 2, err
	}
	t := tail{format: *format, golden: *golden, families: len(rep.Families), debug: ds}
	switch {
	case *golden != "" && *update:
		t.save = func() error { return conform.SaveGolden(*golden, rep.Golden()) }
	case gold != nil:
		t.compare = func() []string { return gold.Compare(rep) }
	}
	return finish(rep, t, out, errOut)
}

// report is the part of a harness report the shared tail reads.
type report interface {
	Markdown(io.Writer) error
	NDJSON(io.Writer) error
	ViolationCount() int
}

// tail is what differs between the two harness modes once the sweep
// is done.
type tail struct {
	mode     string // "fleet " in fleet mode, prefixed to its messages
	format   string
	golden   string // corpus path
	families int
	// save rewrites the corpus from this run (-update); compare returns
	// the run's mismatches against the loaded corpus. At most one is set.
	save    func() error
	compare func() []string
	debug   *obs.DebugServer
}

// finish drains the debug listener, writes the report, counts
// violations and then rewrites or checks the golden corpus. It returns
// the exit code like run.
func finish(rep report, t tail, out, errOut io.Writer) (int, error) {
	// Drain-then-flush: the run is complete, so let any in-flight
	// scrape finish against the final metric state before the report is
	// emitted and the process exits.
	if err := t.debug.Close(); err != nil {
		return 2, err
	}
	var err error
	switch t.format {
	case "markdown":
		err = rep.Markdown(out)
	case "ndjson":
		err = rep.NDJSON(out)
	}
	if err != nil {
		return 2, err
	}

	code := 0
	if n := rep.ViolationCount(); n > 0 {
		fmt.Fprintf(errOut, "conform: %d %scross-check violation(s)\n", n, t.mode)
		code = 1
	}
	switch {
	case t.save != nil:
		// A corpus must never capture violating behavior: digests of a
		// run that failed its own cross-checks are not a baseline.
		if code != 0 {
			return code, fmt.Errorf("refusing to update %s: this run has cross-check violations", t.golden)
		}
		if err := t.save(); err != nil {
			return 2, err
		}
		fmt.Fprintf(errOut, "conform: wrote %sgolden corpus %s (%d families)\n", t.mode, t.golden, t.families)
	case t.compare != nil:
		if diffs := t.compare(); len(diffs) > 0 {
			for _, d := range diffs {
				fmt.Fprintf(errOut, "conform: golden mismatch: %s\n", d)
			}
			code = 1
		} else {
			fmt.Fprintf(errOut, "conform: %sgolden digests match (%d families)\n", t.mode, t.families)
		}
	}
	return code, nil
}

// fleetArgs carries the flag values the fleet mode consumes.
type fleetArgs struct {
	seeds    int
	baseSeed uint64
	families string
	workers  int
	format   string
	golden   string
	update   bool
	metrics  *obs.Registry
	debug    *obs.DebugServer
}

// runFleet executes the fleet harness — the multi-node analogue of the
// main path, with its own family enum and its own golden corpus.
func runFleet(ctx context.Context, a fleetArgs, out, errOut io.Writer) (int, error) {
	fams, err := genscen.ParseFleetFamilies(a.families)
	if err != nil {
		return 2, err
	}
	opt := conform.FleetOptions{
		Seeds: a.seeds, BaseSeed: a.baseSeed, Families: fams,
		Workers: a.workers, Metrics: a.metrics,
	}
	var gold *conform.FleetGolden
	if a.golden != "" && !a.update {
		gold, err = conform.LoadFleetGolden(a.golden)
		if err != nil {
			return 2, err
		}
		gopt := gold.Options()
		gopt.Workers = opt.Workers
		gopt.Metrics = opt.Metrics // digests are metrics-invariant by construction
		opt = gopt
		fmt.Fprintf(errOut, "conform: checking against %s: using its recorded parameters (seeds=%d baseSeed=%d, %d families); generation flags are ignored in check mode\n",
			a.golden, gopt.Seeds, gopt.BaseSeed, len(gopt.Families))
	}
	rep, err := conform.RunFleetContext(ctx, opt)
	if err != nil {
		return 2, err
	}
	t := tail{mode: "fleet ", format: a.format, golden: a.golden, families: len(rep.Families), debug: a.debug}
	switch {
	case a.golden != "" && a.update:
		t.save = func() error { return conform.SaveFleetGolden(a.golden, rep.Golden()) }
	case gold != nil:
		t.compare = func() []string { return gold.Compare(rep) }
	}
	return finish(rep, t, out, errOut)
}
