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
// routing determinism from run to run, the single-node reduction to
// internal/des and the fleet-vs-best-solo stretch invariant, against
// its own golden corpus:
//
//	conform -fleet -seeds 4
//	conform -fleet -golden internal/conform/testdata/golden_fleet.json
//	conform -fleet -golden ... -update
//
// Both modes load, check and rewrite a corpus the same way: a check
// runs the corpus's recorded seeds, parameters and families whatever
// the generation flags say, because digests compare only under the
// parameters they were computed under. With -fleet, the flags only the
// single-node harness reads (-workers, -grid, -oracle-max, -min-apps,
// -max-apps, -selector, -selector-gap-bound) are usage errors rather
// than silently ignored: a fleet run races each node's policy on the
// simulating goroutine, so it has no worker count.
//
// The exit status is 0 only when every cross-check passed (and, with
// -golden, every digest matched). A failing single-node seed prints a
// one-line reproduction command.
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
	mode := "" // prefixed to the fleet harness's messages
	if *fleetRun {
		mode = "fleet "
		var nodeOnly string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workers", "grid", "oracle-max", "min-apps", "max-apps", "selector", "selector-gap-bound":
				nodeOnly = f.Name
			}
		})
		if nodeOnly != "" {
			return 2, fmt.Errorf("-%s applies to the single-node harness, not -fleet", nodeOnly)
		}
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

	// Each mode turns the flags into its options. useCorpus swaps in a
	// golden corpus's recorded parameters and describes them; sweep runs
	// the harness.
	var (
		useCorpus func(*conform.Golden) string
		sweep     func() (report, error)
	)
	if *fleetRun {
		fams, err := genscen.ParseFleetFamilies(*families)
		if err != nil {
			return 2, err
		}
		opt := conform.FleetOptions{Seeds: *seeds, BaseSeed: *baseSeed, Families: fams, Metrics: metrics}
		useCorpus = func(g *conform.Golden) string {
			opt = g.FleetOptions(opt)
			return fmt.Sprintf("seeds=%d baseSeed=%d, %d families", opt.Seeds, opt.BaseSeed, len(opt.Families))
		}
		sweep = func() (report, error) { return conform.RunFleetContext(ctx, opt) }
	} else {
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
		useCorpus = func(g *conform.Golden) string {
			opt = g.Options(opt)
			return fmt.Sprintf("seeds=%d baseSeed=%d grid=%d oracleMaxApps=%d, %d families",
				opt.Seeds, opt.BaseSeed, opt.Grid, opt.OracleMaxApps, len(opt.Families))
		}
		sweep = func() (report, error) { return conform.RunContext(ctx, opt) }
	}

	// A golden check must regenerate exactly the corpus's scenarios, so
	// its recorded parameters (including the family set, derived from
	// the stored digests) override the flags; only the worker count,
	// metrics and selector stay ours, because digests are invariant to
	// them by construction — a -selector run validates against the same
	// corpus as a plain one.
	var gold *conform.Golden
	if *golden != "" && !*update {
		var err error
		gold, err = conform.LoadGolden(*golden)
		if err != nil {
			return 2, err
		}
		// The override is easy to misread as "my flags applied"; say
		// what actually runs.
		fmt.Fprintf(errOut, "conform: checking against %s: using its recorded parameters (%s); generation flags are ignored in check mode\n",
			*golden, useCorpus(gold))
	}
	rep, err := sweep()
	if err != nil {
		return 2, err
	}

	// Drain-then-flush: the run is complete, so let any in-flight
	// scrape finish against the final metric state before the report is
	// emitted and the process exits.
	if err := ds.Close(); err != nil {
		return 2, err
	}
	if *format == "ndjson" {
		err = rep.NDJSON(out)
	} else {
		err = rep.Markdown(out)
	}
	if err != nil {
		return 2, err
	}

	code := 0
	if n := rep.ViolationCount(); n > 0 {
		fmt.Fprintf(errOut, "conform: %d %scross-check violation(s)\n", n, mode)
		code = 1
	}
	corpus := rep.Golden()
	switch {
	case *update:
		// A corpus must never capture violating behavior: digests of a
		// run that failed its own cross-checks are not a baseline.
		if code != 0 {
			return code, fmt.Errorf("refusing to update %s: this run has cross-check violations", *golden)
		}
		if err := conform.SaveGolden(*golden, corpus); err != nil {
			return 2, err
		}
		fmt.Fprintf(errOut, "conform: wrote %sgolden corpus %s (%d families)\n", mode, *golden, len(corpus.Digests))
	case gold != nil:
		if diffs := gold.Compare(corpus); len(diffs) > 0 {
			for _, d := range diffs {
				fmt.Fprintf(errOut, "conform: golden mismatch: %s\n", d)
			}
			code = 1
		} else {
			fmt.Fprintf(errOut, "conform: %sgolden digests match (%d families)\n", mode, len(corpus.Digests))
		}
	}
	return code, nil
}

// report is what run reads from either harness's report.
type report interface {
	Markdown(io.Writer) error
	NDJSON(io.Writer) error
	ViolationCount() int
	Golden() *conform.Golden
}
