// Command benchgate is the statistical benchmark gate: it parses `go
// test -bench` output (repeated runs recommended, e.g. -count=10),
// aggregates each benchmark into median ± MAD, compares against a
// committed JSON baseline with per-metric tolerances, appends the run
// to an NDJSON trajectory (one line per run: label, git SHA, machine
// context, samples, findings, verdict), and exits non-zero on
// significant regressions or on baseline benchmarks missing from the
// run.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 10 ./... | benchgate [flags] [bench.txt ...]
//
// With no file arguments, bench output is read from stdin. A change is
// flagged only when it exceeds both the metric's relative tolerance
// and the MAD-derived noise window, so the gate follows the
// repeated-measurement discipline of the source paper rather than
// diffing single noisy runs. Baseline benchmarks missing from the new
// run fail the gate: a vanished benchmark is a bypass, not a pass. The
// baseline's ratio table is checked on every run, and -update rewrites
// only the entries in the -only/-skip scope.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strings"

	"repro/internal/benchgate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	defaults := benchgate.DefaultTolerances()
	var (
		baselinePath = fs.String("baseline", "benchmarks/baseline.json", "baseline JSON path")
		trajectory   = fs.String("trajectory", "", "NDJSON trajectory to append this run to (e.g. benchmarks/trajectory.ndjson)")
		label        = fs.String("label", "", "label recorded in the trajectory (e.g. a short git SHA)")
		update       = fs.Bool("update", false, "rewrite the in-scope baseline entries from this run")
		tolNs        = fs.Float64("tol-ns", defaults.NsPct, "ns/op tolerance, percent (< 0 reports but never gates)")
		tolB         = fs.Float64("tol-b", defaults.BPct, "B/op tolerance, percent (< 0 reports but never gates)")
		tolAllocs    = fs.Float64("tol-allocs", defaults.AllocsPct, "allocs/op tolerance, percent (< 0 reports but never gates)")
		madK         = fs.Float64("mad-k", defaults.MADK, "noise window MAD multiplier")
		only         = fs.String("only", "", "gate only benchmarks matching this regex (applied to run and baseline)")
		skip         = fs.String("skip", "", "exclude benchmarks matching this regex (applied to run and baseline)")
		quiet        = fs.Bool("quiet", false, "only print failures")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ms, ctx, err := parseInputs(fs.Args(), stdin)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(ms) == 0 {
		fmt.Fprintln(stderr, "benchgate: no benchmark lines in input")
		return 2
	}
	cur := benchgate.Aggregate(ms)
	keep, err := nameFilter(*only, *skip)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for name := range cur {
		if !keep(name) {
			delete(cur, name)
		}
	}
	if len(cur) == 0 {
		fmt.Fprintln(stderr, "benchgate: -only/-skip filtered out every benchmark in the input")
		return 2
	}

	base, err := benchgate.LoadBaseline(*baselinePath)
	if *update && errors.Is(err, os.ErrNotExist) {
		base, err = benchgate.NewBaseline(map[string]benchgate.Sample{}, ctx), nil
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// The filter applies to both sides, so baseline entries outside the
	// selection are out of scope rather than "missing from the run", and
	// -update keeps them as they are.
	scope := make(map[string]benchgate.Sample)
	for name, s := range base.Benchmarks {
		if keep(name) {
			scope[name] = s
			delete(base.Benchmarks, name)
		}
	}

	if *update {
		// Ratio rows matching the old entries stay in scope, so a
		// renamed arm fails its row instead of silently retiring it.
		for name, s := range cur {
			scope[name] = s
			base.Benchmarks[name] = s
		}
		if !checkRatios(base.Ratios, scope, cur, stdout, stderr) {
			fmt.Fprintf(stderr, "benchgate: FAIL: %s not updated: the run fails its ratio table\n", *baselinePath)
			return 1
		}
		if *only != "" || *skip != "" {
			// A scoped run may cover fewer packages than the baseline's
			// entries come from; keep every package already listed.
			ctx.Pkg = unionPkgs(base.Context.Pkg, ctx.Pkg)
		}
		base.Context = ctx
		if err := base.Save(*baselinePath); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "benchgate: baseline %s updated (%d benchmarks from this run)\n", *baselinePath, len(cur))
		return 0
	}
	// A scope that gates nothing would pass any run.
	if len(scope) == 0 {
		fmt.Fprintf(stderr, "benchgate: -only/-skip leaves no entry of %s to gate\n", *baselinePath)
		return 2
	}
	base.Benchmarks = scope
	tol := benchgate.Tolerances{NsPct: *tolNs, BPct: *tolB, AllocsPct: *tolAllocs, MADK: *madK}
	rep := benchgate.Compare(base, cur, tol)
	for _, f := range rep.Findings {
		if *quiet && f.Verdict != benchgate.VerdictRegression && f.Verdict != benchgate.VerdictMissing {
			continue
		}
		fmt.Fprintln(stdout, f)
	}

	fail := !checkRatios(base.Ratios, scope, cur, stdout, stderr) || !rep.Pass()

	if *trajectory != "" {
		t := benchgate.NewTrajectory(*label, *baselinePath, ctx, cur, rep)
		t.SHA = gitSHA()
		t.Pass = !fail
		if err := t.Append(*trajectory); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if !*quiet {
			fmt.Fprintf(stdout, "benchgate: run appended to trajectory %s\n", *trajectory)
		}
	}

	if fail {
		fmt.Fprintln(stderr, "benchgate: FAIL")
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: OK (%d benchmarks gated)\n", len(base.Benchmarks))
	return 0
}

// checkRatios checks the ratio rows whose two patterns both match an
// entry of scope on the run cur, and reports whether all of them pass.
func checkRatios(rows []benchgate.Ratio, scope, cur map[string]benchgate.Sample, stdout, stderr io.Writer) bool {
	inScope := func(pattern string) bool {
		re := regexp.MustCompile(pattern) // LoadBaseline has compiled it once
		for name := range scope {
			if re.MatchString(name) {
				return true
			}
		}
		return false
	}
	ok := true
	for _, r := range rows {
		if !inScope(r.Numerator) || !inScope(r.Denominator) {
			continue
		}
		if cpus := runtime.NumCPU(); cpus < r.MinCPUs {
			fmt.Fprintf(stdout, "benchgate: %d CPUs < %d, skipping the %s ratio\n", cpus, r.MinCPUs, r.Name)
			continue
		}
		s, err := benchgate.Speedup(cur, r.Numerator, r.Denominator)
		switch {
		case err != nil:
			fmt.Fprintf(stderr, "benchgate: FAIL: %s ratio: %v\n", r.Name, err)
		case s < r.Min:
			fmt.Fprintf(stderr, "benchgate: FAIL: %s ratio %.3fx below required %.2gx\n", r.Name, s, r.Min)
		default:
			fmt.Fprintf(stdout, "benchgate: %s ratio: %.3fx (min %.2gx)\n", r.Name, s, r.Min)
			continue
		}
		ok = false
	}
	return ok
}

// unionPkgs joins two comma-separated package lists, keeping a's order
// and appending the packages of b that a lacks.
func unionPkgs(a, b string) string {
	var pkgs []string
	for _, p := range strings.Split(a+","+b, ",") {
		if p != "" && !slices.Contains(pkgs, p) {
			pkgs = append(pkgs, p)
		}
	}
	return strings.Join(pkgs, ",")
}

// gitSHA returns the commit checked out in the working directory, or ""
// outside a git work tree.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// nameFilter compiles the -only/-skip selection into a predicate over
// benchmark names. Empty patterns match everything / exclude nothing.
func nameFilter(only, skip string) (func(string) bool, error) {
	var onlyRe, skipRe *regexp.Regexp
	var err error
	if only != "" {
		if onlyRe, err = regexp.Compile(only); err != nil {
			return nil, fmt.Errorf("benchgate: -only: %w", err)
		}
	}
	if skip != "" {
		if skipRe, err = regexp.Compile(skip); err != nil {
			return nil, fmt.Errorf("benchgate: -skip: %w", err)
		}
	}
	return func(name string) bool {
		if onlyRe != nil && !onlyRe.MatchString(name) {
			return false
		}
		return skipRe == nil || !skipRe.MatchString(name)
	}, nil
}

// parseInputs reads bench output from the named files, or stdin when
// none are given, and concatenates the measurements. The context of
// the first file that carries one wins.
func parseInputs(paths []string, stdin io.Reader) ([]benchgate.Measurement, benchgate.Context, error) {
	if len(paths) == 0 {
		return benchgate.Parse(stdin)
	}
	var (
		all []benchgate.Measurement
		ctx benchgate.Context
	)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, ctx, fmt.Errorf("benchgate: %w", err)
		}
		ms, c, err := benchgate.Parse(f)
		f.Close()
		if err != nil {
			return nil, ctx, fmt.Errorf("%s: %w", p, err)
		}
		all = append(all, ms...)
		if ctx == (benchgate.Context{}) {
			ctx = c
		}
	}
	return all, ctx, nil
}
