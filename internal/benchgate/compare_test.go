package benchgate

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// mkBase builds a one-benchmark baseline for verdict tests.
func mkBase(name string, ns, b, allocs Metric) *Baseline {
	return &Baseline{
		Schema:     baselineSchema,
		Benchmarks: map[string]Sample{name: {NsOp: ns, BOp: b, AllocsOp: allocs}},
	}
}

func findingFor(t *testing.T, rep *Report, metric string) Finding {
	t.Helper()
	for _, f := range rep.Findings {
		if f.Metric == metric {
			return f
		}
	}
	t.Fatalf("no finding for metric %q in %+v", metric, rep.Findings)
	return Finding{}
}

func TestCompareVerdicts(t *testing.T) {
	tol := DefaultTolerances()
	base := mkBase("BenchmarkA",
		Metric{Median: 1000, MAD: 10, N: 10},
		Metric{Median: 2048, MAD: 0, N: 10},
		Metric{Median: 100, MAD: 0, N: 10})

	cases := []struct {
		name    string
		cur     Sample
		metric  string
		verdict Verdict
	}{
		{
			name: "within tolerance is ok",
			cur: Sample{NsOp: Metric{Median: 1100, MAD: 8, N: 10},
				BOp: Metric{Median: 2048, N: 10}, AllocsOp: Metric{Median: 100, N: 10}},
			metric: "ns/op", verdict: VerdictOK,
		},
		{
			name: "big timing regression flagged",
			cur: Sample{NsOp: Metric{Median: 1500, MAD: 10, N: 10},
				BOp: Metric{Median: 2048, N: 10}, AllocsOp: Metric{Median: 100, N: 10}},
			metric: "ns/op", verdict: VerdictRegression,
		},
		{
			name: "outside tolerance but inside noise window is ok",
			// +40% exceeds the 30% tolerance, but the current run is so
			// noisy (MAD 200 → window 600) that the delta of 400 is not
			// statistically significant.
			cur: Sample{NsOp: Metric{Median: 1400, MAD: 200, N: 10},
				BOp: Metric{Median: 2048, N: 10}, AllocsOp: Metric{Median: 100, N: 10}},
			metric: "ns/op", verdict: VerdictOK,
		},
		{
			name: "improvement flagged",
			cur: Sample{NsOp: Metric{Median: 500, MAD: 5, N: 10},
				BOp: Metric{Median: 2048, N: 10}, AllocsOp: Metric{Median: 100, N: 10}},
			metric: "ns/op", verdict: VerdictImprovement,
		},
		{
			name: "alloc creep beyond 5% fails",
			cur: Sample{NsOp: Metric{Median: 1000, MAD: 10, N: 10},
				BOp: Metric{Median: 2048, N: 10}, AllocsOp: Metric{Median: 106, MAD: 0, N: 10}},
			metric: "allocs/op", verdict: VerdictRegression,
		},
		{
			name: "alloc reduction is an improvement",
			cur: Sample{NsOp: Metric{Median: 1000, MAD: 10, N: 10},
				BOp: Metric{Median: 2048, N: 10}, AllocsOp: Metric{Median: 50, MAD: 0, N: 10}},
			metric: "allocs/op", verdict: VerdictImprovement,
		},
		{
			name: "bytes regression beyond 10% fails",
			cur: Sample{NsOp: Metric{Median: 1000, MAD: 10, N: 10},
				BOp: Metric{Median: 2400, MAD: 0, N: 10}, AllocsOp: Metric{Median: 100, N: 10}},
			metric: "B/op", verdict: VerdictRegression,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Compare(base, map[string]Sample{"BenchmarkA": tc.cur}, tol)
			f := findingFor(t, rep, tc.metric)
			if f.Verdict != tc.verdict {
				t.Errorf("verdict %s, want %s (finding %+v)", f.Verdict, tc.verdict, f)
			}
			wantPass := tc.verdict != VerdictRegression
			if rep.Pass() != wantPass {
				t.Errorf("Pass() = %v, want %v", rep.Pass(), wantPass)
			}
		})
	}
}

// TestCompareDisabledMetricNeverGates covers the cross-machine CI
// mode: with a negative ns/op tolerance even a massive timing delta is
// reported but never flagged, while allocs/op still gates.
func TestCompareDisabledMetricNeverGates(t *testing.T) {
	tol := DefaultTolerances()
	tol.NsPct = -1
	base := mkBase("BenchmarkA",
		Metric{Median: 1000, MAD: 1, N: 10}, Metric{}, Metric{Median: 100, MAD: 0, N: 10})
	cur := map[string]Sample{"BenchmarkA": {
		NsOp:     Metric{Median: 9000, MAD: 1, N: 10},
		AllocsOp: Metric{Median: 150, MAD: 0, N: 10},
	}}
	rep := Compare(base, cur, tol)
	if f := findingFor(t, rep, "ns/op"); f.Verdict != VerdictOK || f.DeltaPct != 800 {
		t.Errorf("disabled ns/op gate produced %+v", f)
	}
	if f := findingFor(t, rep, "allocs/op"); f.Verdict != VerdictRegression {
		t.Errorf("allocs/op no longer gates: %+v", f)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := mkBase("BenchmarkGone", Metric{Median: 10, N: 3}, Metric{}, Metric{})
	rep := Compare(base, map[string]Sample{"BenchmarkOther": {NsOp: Metric{Median: 1, N: 3}}}, DefaultTolerances())
	if rep.Pass() {
		t.Fatal("gate passed although a baseline benchmark vanished from the run")
	}
	var sawMissing, sawNew bool
	for _, f := range rep.Findings {
		switch f.Verdict {
		case VerdictMissing:
			sawMissing = f.Benchmark == "BenchmarkGone"
		case VerdictNew:
			sawNew = f.Benchmark == "BenchmarkOther"
		}
	}
	if !sawMissing {
		t.Error("missing benchmark not reported")
	}
	if !sawNew {
		t.Error("new benchmark not reported")
	}
	if n := len(rep.Failures()); n != 1 {
		t.Errorf("Failures() = %d findings, want 1 (new benchmarks must not fail)", n)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	// A 0 B/op baseline must flag any byte growth beyond noise.
	base := mkBase("BenchmarkZ", Metric{Median: 10, N: 3}, Metric{Median: 0, MAD: 0, N: 3}, Metric{})
	cur := map[string]Sample{"BenchmarkZ": {
		NsOp: Metric{Median: 10, N: 3}, BOp: Metric{Median: 64, MAD: 0, N: 3},
	}}
	rep := Compare(base, cur, DefaultTolerances())
	if f := findingFor(t, rep, "B/op"); f.Verdict != VerdictRegression {
		t.Errorf("0 → 64 B/op verdict %s, want regression", f.Verdict)
	}
}

func TestFindingStringSeparatesVerdict(t *testing.T) {
	// "improvement" is wider than the column pad; the verdict must still
	// be separated from the benchmark name in the log line.
	for _, v := range []Verdict{VerdictOK, VerdictImprovement, VerdictRegression} {
		f := Finding{Benchmark: "BenchmarkX", Metric: "ns/op", Base: 2, New: 1, Verdict: v}
		if got := f.String(); !strings.Contains(got, string(v)+" ") {
			t.Errorf("verdict %s runs into the benchmark name: %q", v, got)
		}
	}
}

func TestSpeedupMissingBenchmarkFailsLoudly(t *testing.T) {
	cur := map[string]Sample{
		"BenchmarkPortfolioSweep/workers=1": {NsOp: Metric{Median: 100, N: 3}},
		"BenchmarkPortfolioSweep/workers=4": {NsOp: Metric{Median: 40, N: 3}},
	}
	s, err := Speedup(cur, `^BenchmarkPortfolioSweep/workers=1$`, `^BenchmarkPortfolioSweep/workers=([2-9]|[1-9][0-9]+)$`)
	if err != nil {
		t.Fatal(err)
	}
	if s != 2.5 {
		t.Errorf("speedup = %g, want 2.5", s)
	}
	// The old scripts/bench.sh awk pipeline silently passed when a
	// benchmark disappeared; the gate must error instead.
	if _, err := Speedup(cur, `^BenchmarkRenamedAway$`, `^BenchmarkPortfolioSweep/`); err == nil {
		t.Fatal("missing serial benchmark did not fail the speedup gate")
	}
	if _, err := Speedup(cur, `^BenchmarkPortfolioSweep/workers=1$`, `^BenchmarkRenamedAway$`); err == nil {
		t.Fatal("missing parallel benchmark did not fail the speedup gate")
	}
}

func TestBaselineAndTrajectoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := Context{GOOS: "linux", GOARCH: "amd64", CPU: "test-cpu", GOMAXPROCS: 2}
	cur := map[string]Sample{
		"BenchmarkA": {
			NsOp:     Metric{Median: 123.5, MAD: 1.5, N: 10},
			BOp:      Metric{Median: 2048, MAD: 0, N: 10},
			AllocsOp: Metric{Median: 17, MAD: 0, N: 10},
		},
		"BenchmarkB/sub=x": {NsOp: Metric{Median: 9, MAD: 0.25, N: 10}},
	}

	bpath := filepath.Join(dir, "baseline.json")
	if err := NewBaseline(cur, ctx).Save(bpath); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBaseline(bpath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Benchmarks, cur) || loaded.Context != ctx {
		t.Errorf("baseline round trip mismatch:\nsaved  %+v\nloaded %+v", cur, loaded.Benchmarks)
	}

	rep := Compare(loaded, cur, DefaultTolerances())
	if !rep.Pass() {
		t.Fatalf("self-comparison failed: %+v", rep.Findings)
	}
	tpath := filepath.Join(dir, "trajectory.ndjson")
	traj := NewTrajectory("abc1234", bpath, ctx, cur, rep)
	traj.SHA = "abc1234def"
	if err := traj.Append(tpath); err != nil {
		t.Fatal(err)
	}
	points, err := LoadTrajectory(tpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || !reflect.DeepEqual(points[0], *traj) {
		t.Errorf("trajectory round trip mismatch:\nsaved  %+v\nloaded %+v", *traj, points)
	}

	// Appending the same point to a second file must write the same
	// bytes (deterministic encoding).
	tpath2 := filepath.Join(dir, "trajectory2.ndjson")
	if err := traj.Append(tpath2); err != nil {
		t.Fatal(err)
	}
	d1, d2 := mustRead(t, tpath), mustRead(t, tpath2)
	if d1 != d2 {
		t.Error("trajectory encoding is not deterministic")
	}
}

// TestTrajectoryAppends: a trajectory file is append-only NDJSON, one
// compact line per run; LoadTrajectory returns every point in order
// and refuses a file with a corrupt line.
func TestTrajectoryAppends(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trajectory.ndjson")
	rep := &Report{}
	first := NewTrajectory("aaa1111", "baseline.json", Context{CPU: "cpu-a", GOMAXPROCS: 2},
		map[string]Sample{"BenchmarkA": {NsOp: Metric{Median: 100, N: 10}}}, rep)
	second := NewTrajectory("bbb2222+dirty", "baseline.json", Context{CPU: "cpu-a", GOMAXPROCS: 4},
		map[string]Sample{"BenchmarkA": {NsOp: Metric{Median: 90, N: 10}}}, rep)
	second.Pass = false
	for _, p := range []*Trajectory{first, second} {
		if err := p.Append(path); err != nil {
			t.Fatal(err)
		}
	}
	data := mustRead(t, path)
	if lines := strings.Count(data, "\n"); lines != 2 {
		t.Fatalf("two appends wrote %d lines:\n%s", lines, data)
	}
	points, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || !reflect.DeepEqual(points[0], *first) || !reflect.DeepEqual(points[1], *second) {
		t.Errorf("two appends did not round-trip:\n%+v", points)
	}

	if err := writeFile(path, data+"{\"schema\":1,\"label\":\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrajectory(path); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("corrupt third line: err = %v, want a line 3 error", err)
	}
	if _, err := LoadTrajectory(filepath.Join(dir, "absent.ndjson")); err == nil {
		t.Error("loading an absent trajectory succeeded")
	}
}

func TestLoadBaselineRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := writeFile(p, content); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := LoadBaseline(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing baseline file did not error")
	}
	if _, err := LoadBaseline(write("garbage.json", "{")); err == nil {
		t.Error("corrupt baseline did not error")
	}
	if _, err := LoadBaseline(write("schema.json", `{"schema":99,"benchmarks":{"X":{"ns_op":{"median":1,"n":1}}}}`)); err == nil {
		t.Error("wrong schema did not error")
	}
	if _, err := LoadBaseline(write("empty.json", `{"schema":1,"benchmarks":{}}`)); err == nil {
		t.Error("baseline gating nothing did not error")
	}
	for _, row := range []string{
		`{"name":"r","numerator":"(","denominator":"x","min":2}`,
		`{"name":"","numerator":"x","denominator":"y","min":2}`,
		`{"name":"r","numerator":"x","denominator":"y","min":0}`,
	} {
		if _, err := LoadBaseline(write("ratio.json", `{"schema":1,"ratios":[`+row+`],"benchmarks":{"X":{"ns_op":{"median":1,"n":1}}}}`)); err == nil {
			t.Errorf("bad ratio row %s did not error", row)
		}
	}
}
