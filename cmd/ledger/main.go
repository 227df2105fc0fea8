// Command ledger trains and inspects the learned-selection win-rate
// ledger (internal/selector): the versioned JSON artifact a selector
// policy predicts winning heuristics from.
//
// Usage:
//
//	ledger train [-families LIST] [-seeds N] [-seed-start K] [-workers N] [-out FILE]
//	ledger train -telemetry races.ndjson [-telemetry more.ndjson] [-out FILE]
//	ledger inspect [-in FILE] [-v]
//
// train without -telemetry races the full extended heuristic portfolio
// over seeded genscen instances — the same deterministic scenario
// families the conform harness replays — and folds every race outcome
// into the ledger. With -telemetry it instead ingests NDJSON
// win/loss/margin records as produced by cosched -telemetry, so
// production traffic trains the same artifact as synthetic sweeps.
// Either way the result is merged into an existing -out file when one
// is present (training accumulates across runs; use -no-merge for a
// fresh ledger) and written atomically.
//
// inspect prints per-bucket evidence — races, wins, win rates, median
// margins — and each bucket's current prediction under the default
// confidence thresholds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"text/tabwriter"

	"repro/internal/conform"
	"repro/internal/genscen"
	"repro/internal/sched"
	"repro/internal/selector"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ledger {train|inspect} [flags]")
	}
	switch args[0] {
	case "train":
		return runTrain(ctx, args[1:], out)
	case "inspect":
		return runInspect(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want train or inspect)", args[0])
	}
}

// stringList collects a repeatable -telemetry flag.
type stringList []string

func (s *stringList) String() string { return fmt.Sprint([]string(*s)) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func runTrain(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ledger train", flag.ContinueOnError)
	var telemetry stringList
	var (
		families  = fs.String("families", "", "comma-separated genscen families to sweep (default: all)")
		seeds     = fs.Int("seeds", 100, "seeds per family")
		seedStart = fs.Int("seed-start", 1, "first seed of the sweep")
		workers   = fs.Int("workers", 0, "portfolio worker pool (0 = GOMAXPROCS); training is worker-count invariant")
		outPath   = fs.String("out", "runs/ledger.json", "ledger file to write (atomically)")
		noMerge   = fs.Bool("no-merge", false, "start from an empty ledger instead of merging into an existing -out file")
	)
	fs.Var(&telemetry, "telemetry", "ingest this NDJSON race-record file instead of sweeping (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	l := selector.New()
	if !*noMerge {
		prev, err := selector.LoadFile(*outPath)
		switch {
		case err == nil:
			l = prev
		case os.IsNotExist(err):
			// First run: nothing to merge.
		default:
			return err
		}
	}
	before := l.Races()

	if len(telemetry) > 0 {
		for _, path := range telemetry {
			if err := ingestTelemetry(l, path); err != nil {
				return err
			}
		}
	} else {
		fams, err := genscen.ParseFamilies(*families)
		if err != nil {
			return err
		}
		if err := conform.TrainLedger(ctx, l, fams, *seedStart, *seeds, *workers); err != nil {
			return err
		}
	}

	if err := l.SaveFile(*outPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "ledger: %s: %d buckets, %d races (+%d), fingerprint %s\n",
		*outPath, len(l.Buckets()), l.Races(), l.Races()-before, l.Fingerprint())
	return nil
}

// ingestTelemetry folds one NDJSON race-record file (cosched
// -telemetry's output) into l. A malformed or invalid record aborts
// with its line number: a ledger must never absorb partial garbage.
func ingestTelemetry(l *selector.Ledger, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rr selector.RaceRecord
		if err := json.Unmarshal(sc.Bytes(), &rr); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if err := l.Ingest(rr); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func runInspect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ledger inspect", flag.ContinueOnError)
	var (
		inPath  = fs.String("in", "runs/ledger.json", "ledger file to inspect")
		verbose = fs.Bool("v", false, "also list every (bucket, heuristic) cell")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := selector.LoadFile(*inPath)
	if err != nil {
		return err
	}
	th := selector.DefaultThresholds()
	fmt.Fprintf(out, "ledger %s: %d buckets, %d races, fingerprint %s\n\n",
		*inPath, len(l.Buckets()), l.Races(), l.Fingerprint())
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bucket\tprediction\twin rate\tmedian margin\tconfident")
	for _, bucket := range l.Buckets() {
		pred, ok := l.Predict(bucket, sched.ExtendedHeuristics)
		if !ok {
			fmt.Fprintf(tw, "%s\t(no evidence)\t\t\t\n", bucket)
			continue
		}
		fmt.Fprintf(tw, "%s\t%v\t%.0f%% (%d/%d)\t%.6f\t%v\n",
			bucket, pred.Heuristic, 100*pred.WinRate, pred.Wins, pred.Races,
			pred.Gap, pred.Confident(th))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if !*verbose {
		return nil
	}
	fmt.Fprintln(out)
	tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bucket\theuristic\traces\twins\twin rate\tmedian margin")
	for _, bucket := range l.Buckets() {
		for _, h := range sched.ExtendedHeuristics {
			c, ok := l.Cell(bucket, h)
			if !ok {
				continue
			}
			fmt.Fprintf(tw, "%s\t%v\t%d\t%d\t%.0f%%\t%.6f\n",
				bucket, h, c.Races, c.Wins, 100*c.WinRate(), c.MedianMargin())
		}
	}
	return tw.Flush()
}
