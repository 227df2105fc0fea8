package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/benchgate"
)

// benchLog renders a fake -count=3 bench log for two benchmarks with
// the given ns/op and allocs/op centers (±1 ns jitter across runs).
func benchLog(sweepNs, desNs, allocs float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro/internal/portfolio\ncpu: test\n")
	for i := 0; i < 3; i++ {
		j := float64(i)
		fmt.Fprintf(&b, "BenchmarkPortfolioSweep/workers=1-8\t 50\t %g ns/op\t 1000 B/op\t %g allocs/op\n", sweepNs+j, allocs)
		fmt.Fprintf(&b, "BenchmarkDESPortfolio-8\t 50\t %g ns/op\t 2000 B/op\t %g allocs/op\n", desNs+j, allocs)
	}
	b.WriteString("PASS\n")
	return b.String()
}

// gate runs the CLI with a baseline recorded from baseLog and input
// from curLog, returning the exit code and combined output.
func gate(t *testing.T, baseLog, curLog string, extraArgs ...string) (int, string) {
	t.Helper()
	return runGate(curLog, append([]string{"-baseline", ratioBaseline(t, baseLog)}, extraArgs...)...)
}

// ratioBaseline writes a baseline recorded from log with the given
// ratio rows and returns its path.
func ratioBaseline(t *testing.T, log string, rows ...benchgate.Ratio) string {
	t.Helper()
	ms, _, err := benchgate.Parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	b := benchgate.NewBaseline(benchgate.Aggregate(ms), benchgate.Context{})
	b.Ratios = rows
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// runGate runs the CLI on input and returns the exit code and the
// combined output.
func runGate(input string, args ...string) (int, string) {
	var out bytes.Buffer
	code := run(args, strings.NewReader(input), &out, &out)
	return code, out.String()
}

func TestGatePassesOnStableRun(t *testing.T) {
	base := benchLog(1000, 2000, 300)
	code, out := gate(t, base, benchLog(1010, 2020, 300))
	if code != 0 {
		t.Fatalf("stable run failed the gate (%d):\n%s", code, out)
	}
}

// TestGateFailsOnRegression is the acceptance check: a synthetic
// regressed input must make benchgate exit non-zero.
func TestGateFailsOnRegression(t *testing.T) {
	base := benchLog(1000, 2000, 300)
	cases := map[string]string{
		"timing regression":     benchLog(5000, 2000, 300),
		"allocation regression": benchLog(1000, 2000, 450),
	}
	for name, cur := range cases {
		t.Run(name, func(t *testing.T) {
			code, out := gate(t, base, cur)
			if code == 0 {
				t.Fatalf("regressed input passed the gate:\n%s", out)
			}
			if !strings.Contains(out, "regression") {
				t.Errorf("output does not name the regression:\n%s", out)
			}
		})
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	base := benchLog(1000, 2000, 300)
	// The DES benchmark vanishes from the new run (e.g. renamed): the
	// old text-diff gate silently passed this; benchgate must fail.
	only := "goos: linux\nBenchmarkPortfolioSweep/workers=1-8\t 50\t 1000 ns/op\t 1000 B/op\t 300 allocs/op\nPASS\n"
	code, out := gate(t, base, only)
	if code == 0 {
		t.Fatalf("run missing a baseline benchmark passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "MISSING") {
		t.Errorf("output does not flag the missing benchmark:\n%s", out)
	}
}

func TestGateWritesTrajectory(t *testing.T) {
	dir := t.TempDir()
	traj := filepath.Join(dir, "trajectory.ndjson")
	base := benchLog(1000, 2000, 300)
	for _, label := range []string{"abc1234", "abc1234+dirty"} {
		code, out := gate(t, base, benchLog(1001, 2001, 300), "-trajectory", traj, "-label", label)
		if code != 0 {
			t.Fatalf("gate failed (%d):\n%s", code, out)
		}
	}
	got, err := benchgate.LoadTrajectory(traj)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Label != "abc1234" || got[1].Label != "abc1234+dirty" {
		t.Fatalf("two gate runs did not append two labelled points: %+v", got)
	}
	if !got[1].Pass || len(got[1].Benchmarks) != 2 {
		t.Errorf("trajectory point wrong: %+v", got[1])
	}
}

func TestGateRejectsMalformedInput(t *testing.T) {
	if code, _ := gate(t, benchLog(1, 2, 3), "BenchmarkBroken\t xx\t 1 ns/op\n"); code != 2 {
		t.Fatalf("malformed input exit code %d, want 2", code)
	}
}

// TestGateOnlySkipFilters covers the -only/-skip selection: a filtered
// baseline entry is out of scope (not MISSING), a filtered regression
// does not gate, and the selection applies to both sides symmetrically.
func TestGateOnlySkipFilters(t *testing.T) {
	base := benchLog(1000, 2000, 300)
	// The DES benchmark both regresses and vanishes in the cases below;
	// the filters must make the gate indifferent to it.
	sweepOnly := "goos: linux\nBenchmarkPortfolioSweep/workers=1-8\t 50\t 1000 ns/op\t 1000 B/op\t 300 allocs/op\nPASS\n"

	if code, out := gate(t, base, sweepOnly, "-only", "^BenchmarkPortfolioSweep"); code != 0 {
		t.Errorf("-only did not scope out the absent benchmark (%d):\n%s", code, out)
	}
	if code, out := gate(t, base, sweepOnly, "-skip", "^BenchmarkDES"); code != 0 {
		t.Errorf("-skip did not scope out the absent benchmark (%d):\n%s", code, out)
	}
	if code, out := gate(t, base, benchLog(1000, 9000, 300), "-skip", "^BenchmarkDES"); code != 0 {
		t.Errorf("-skip did not exclude the regressed benchmark (%d):\n%s", code, out)
	}
	// Without the filter the same inputs must still fail.
	if code, _ := gate(t, base, benchLog(1000, 9000, 300)); code == 0 {
		t.Error("regression passed without a filter")
	}
	if code, _ := gate(t, base, sweepOnly, "-only", "nomatch"); code != 2 {
		t.Error("empty selection should be a usage error")
	}
	if code, _ := gate(t, base, sweepOnly, "-only", "("); code != 2 {
		t.Error("invalid regex should be a usage error")
	}
}

func TestGateReadsFiles(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	logPath := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(logPath, []byte(benchLog(1000, 2000, 300)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-update", logPath}, {logPath}} {
		if code, out := runGate("", append([]string{"-baseline", baseline}, args...)...); code != 0 {
			t.Fatalf("benchgate %v from file failed: %s", args, out)
		}
	}
}

// TestGateNewBenchmarkInformational: a benchmark present in the run but
// absent from the baseline is reported (so reviewers notice the gap in
// coverage) without failing the gate — growing the suite must not
// require a simultaneous baseline rewrite.
func TestGateNewBenchmarkInformational(t *testing.T) {
	base := benchLog(1000, 2000, 300)
	cur := benchLog(1000, 2000, 300) +
		"BenchmarkSelectorSweep/mode=selector-8\t 50\t 500 ns/op\t 100 B/op\t 10 allocs/op\n"
	code, out := gate(t, base, cur)
	if code != 0 {
		t.Fatalf("run with a new benchmark failed the gate (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "BenchmarkSelectorSweep/mode=selector") || !strings.Contains(out, "new") {
		t.Errorf("output does not report the new benchmark informationally:\n%s", out)
	}
}

// selectorLog renders a bench log carrying just the two selector arms
// with the given ns/op centers.
func selectorLog(fullNs, selNs float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro/internal/portfolio\ncpu: test\n")
	for i := 0; i < 3; i++ {
		j := float64(i)
		fmt.Fprintf(&b, "BenchmarkSelectorSweep/mode=full-8\t 50\t %g ns/op\t 1000 B/op\t 10 allocs/op\n", fullNs+j)
		fmt.Fprintf(&b, "BenchmarkSelectorSweep/mode=selector-8\t 50\t %g ns/op\t 100 B/op\t 10 allocs/op\n", selNs+j)
	}
	b.WriteString("PASS\n")
	return b.String()
}

var selectorRatio = benchgate.Ratio{
	Name:        "selector",
	Numerator:   `^BenchmarkSelectorSweep/mode=full$`,
	Denominator: `^BenchmarkSelectorSweep/mode=selector$`,
	Min:         3,
}

// TestSelectorSpeedupGate: a ratio row gates the full-race /
// selector-shortcut ratio of the run when both of its arms are in
// scope and the machine has the CPUs the row asks for; an arm that
// vanishes from the run fails as MISSING.
func TestSelectorSpeedupGate(t *testing.T) {
	floor := selectorRatio
	floor.Name, floor.Min, floor.MinCPUs = "floor", 100, 1<<20
	base := ratioBaseline(t, benchLog(1000, 2000, 300)+selectorLog(5000, 1000), selectorRatio, floor)
	fast := benchLog(1000, 2000, 300) + selectorLog(5000, 1000)
	slow := benchLog(1000, 2000, 300) + selectorLog(5000, 4000)
	vanished := benchLog(1000, 2000, 300) + "BenchmarkSelectorSweep/mode=full-8\t 50\t 5000 ns/op\n"
	for _, c := range []struct {
		name, in, flag string
		code           int
		want           string
	}{
		{"5x passes a 3x row", fast, "-quiet", 0, "selector ratio: 4.996x"},
		{"1.25x fails a 3x row", slow, "-tol-ns=-1", 1, "FAIL: selector ratio 1.250x"},
		{"row above the CPU count", slow, "-tol-ns=-1", 1, "skipping the floor ratio"},
		{"row out of scope", slow, "-skip=^BenchmarkSelector", 0, "OK (2 benchmarks gated)"},
		{"vanished arm", vanished, "-quiet", 1, "MISSING   BenchmarkSelectorSweep/mode=selector"},
	} {
		if code, out := runGate(c.in, "-baseline", base, c.flag); code != c.code || !strings.Contains(out, c.want) {
			t.Errorf("%s: exit %d, want %d and %q:\n%s", c.name, code, c.code, c.want, out)
		}
	}
}

// TestGateEmptyScopeIsUsageError: a compare run whose scope leaves no
// baseline entry gates nothing, so it must not pass. This is the
// load-test gate after a refresh that dropped its budgets.
func TestGateEmptyScopeIsUsageError(t *testing.T) {
	base := ratioBaseline(t, benchLog(1000, 2000, 300))
	if code, out := runGate("BenchmarkServeLoad/schedule/p50 1 999e6 ns/op\n", "-baseline", base, "-only", "^BenchmarkServeLoad/"); code != 2 {
		t.Fatalf("a scope with no baseline entry exited %d, want 2:\n%s", code, out)
	}
}

// TestUpdateKeepsOutOfScopeEntries: the refresh bench.sh performs
// rewrites the go-test entries only; the load-test budgets and the
// ratio table survive it, and the load-test gate still fails a 999 ms
// p50 afterwards.
func TestUpdateKeepsOutOfScopeEntries(t *testing.T) {
	p50 := func(ns string) string { return "BenchmarkServeLoad/schedule/p50 1 " + ns + " ns/op\n" }
	base := ratioBaseline(t, benchLog(1000, 2000, 300)+p50("1e7"), selectorRatio)
	if code, out := runGate(benchLog(900, 2000, 300), "-baseline", base, "-update", "-skip", "^BenchmarkServeLoad"); code != 0 {
		t.Fatalf("scoped update failed (%d): %s", code, out)
	}
	b, err := benchgate.LoadBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Benchmarks["BenchmarkServeLoad/schedule/p50"]; !ok || len(b.Benchmarks) != 3 || len(b.Ratios) != 1 {
		t.Errorf("scoped update lost out-of-scope data: %d entries, ratios %+v", len(b.Benchmarks), b.Ratios)
	}
	if got := b.Benchmarks["BenchmarkPortfolioSweep/workers=1"].NsOp.Median; got != 901 {
		t.Errorf("in-scope entry not refreshed: ns/op %v, want 901", got)
	}
	if code, out := runGate(p50("999e6"), "-baseline", base, "-only", "^BenchmarkServeLoad/schedule/", "-tol-ns", "0", "-mad-k", "0"); code != 1 {
		t.Errorf("load-test gate exited %d on a 999 ms p50, want 1:\n%s", code, out)
	}
}

// TestScopedUpdateKeepsContextPackages: re-recording one arm from a
// run of its package alone keeps every package the baseline's context
// already lists, and adds the run's.
func TestScopedUpdateKeepsContextPackages(t *testing.T) {
	base := ratioBaseline(t, benchLog(1000, 2000, 300))
	b, err := benchgate.LoadBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	b.Context.Pkg = "repro/internal/portfolio,repro/internal/des"
	if err := b.Save(base); err != nil {
		t.Fatal(err)
	}
	run := "pkg: repro/internal/fleet\nBenchmarkFleetRoute-8\t 300\t 1000 ns/op\t 10 B/op\t 1 allocs/op\n"
	if code, out := runGate(run, "-baseline", base, "-update", "-only", "^BenchmarkFleetRoute$"); code != 0 {
		t.Fatalf("scoped update failed (%d): %s", code, out)
	}
	if b, err = benchgate.LoadBaseline(base); err != nil {
		t.Fatal(err)
	}
	if want := "repro/internal/portfolio,repro/internal/des,repro/internal/fleet"; b.Context.Pkg != want {
		t.Errorf("context pkg %q after a scoped update, want %q", b.Context.Pkg, want)
	}
}

// TestUpdateRefusesFailingRatio: -update checks the in-scope ratio rows
// on the new samples and leaves the baseline untouched when one fails.
func TestUpdateRefusesFailingRatio(t *testing.T) {
	base := ratioBaseline(t, selectorLog(5000, 1000), selectorRatio)
	if code, out := runGate(selectorLog(5000, 4000), "-baseline", base, "-update"); code != 1 {
		t.Fatalf("update with a failing ratio exited %d, want 1:\n%s", code, out)
	}
	if b, err := benchgate.LoadBaseline(base); err != nil || b.Benchmarks["BenchmarkSelectorSweep/mode=selector"].NsOp.Median != 1001 {
		t.Fatalf("refused update rewrote the baseline (%v)", err)
	}
	if code, out := runGate(selectorLog(6000, 1000), "-baseline", base, "-update"); code != 0 {
		t.Fatalf("update with a passing ratio failed (%d):\n%s", code, out)
	}
}

// TestCommittedBaselineGates pins the committed baseline's gates: its
// four ratio rows, and load-test budgets that fail a 999 ms p50.
func TestCommittedBaselineGates(t *testing.T) {
	const path = "../../benchmarks/baseline.json"
	b, err := benchgate.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][2]float64{} // name -> {min, min_cpus}
	for _, r := range b.Ratios {
		got[r.Name] = [2]float64{r.Min, float64(r.MinCPUs)}
	}
	if want := map[string][2]float64{"portfolio-parallel": {2, 4}, "portfolio-parallel-2": {1.2, 2}, "delta-replan": {5, 0}, "selector": {3, 0}}; !reflect.DeepEqual(got, want) {
		t.Errorf("ratio rows %v, want %v", got, want)
	}
	load := "BenchmarkServeLoad/schedule/p50 1 999e6 ns/op\nBenchmarkServeLoad/schedule/p99 1 1e6 ns/op\nBenchmarkServeLoad/schedule/sustained 1 1e6 ns/op\n"
	if code, out := runGate(load, "-baseline", path, "-only", "^BenchmarkServeLoad/schedule/", "-tol-ns", "0", "-mad-k", "0"); code != 1 {
		t.Errorf("load-test gate exited %d on a 999 ms p50, want 1:\n%s", code, out)
	}
}
