package benchgate

import (
	"strings"
	"testing"
)

func TestParseTable(t *testing.T) {
	cases := []struct {
		name    string
		input   string
		wantErr bool
		check   func(t *testing.T, ms []Measurement, ctx Context)
	}{
		{
			name: "plain ns/op line",
			input: "BenchmarkFoo \t 100 \t 123.5 ns/op\n" +
				"PASS\nok  \trepro/internal/foo\t0.1s\n",
			check: func(t *testing.T, ms []Measurement, _ Context) {
				if len(ms) != 1 {
					t.Fatalf("got %d measurements, want 1", len(ms))
				}
				m := ms[0]
				if m.Name != "BenchmarkFoo" || m.Iterations != 100 || m.NsOp != 123.5 {
					t.Errorf("bad measurement %+v", m)
				}
				if m.HasBOp || m.HasAllocs {
					t.Errorf("phantom benchmem metrics in %+v", m)
				}
			},
		},
		{
			name:  "benchmem metrics and GOMAXPROCS suffix",
			input: "BenchmarkSweep/workers=4-8   30   456 ns/op   1024 B/op   17 allocs/op\n",
			check: func(t *testing.T, ms []Measurement, ctx Context) {
				m := ms[0]
				if m.Name != "BenchmarkSweep/workers=4" {
					t.Errorf("GOMAXPROCS suffix not stripped: %q", m.Name)
				}
				if ctx.GOMAXPROCS != 8 {
					t.Errorf("context GOMAXPROCS = %d, want the stripped suffix 8", ctx.GOMAXPROCS)
				}
				if !m.HasBOp || m.BOp != 1024 || !m.HasAllocs || m.AllocsOp != 17 {
					t.Errorf("benchmem metrics wrong: %+v", m)
				}
			},
		},
		{
			name: "multiple GOMAXPROCS variants of one benchmark collapse",
			input: "BenchmarkX-2  10  100 ns/op\n" +
				"BenchmarkX-8  10  90 ns/op\n" +
				"BenchmarkX    10  110 ns/op\n",
			check: func(t *testing.T, ms []Measurement, _ Context) {
				for _, m := range ms {
					if m.Name != "BenchmarkX" {
						t.Errorf("variant %q not normalized", m.Name)
					}
				}
				if len(ms) != 3 {
					t.Errorf("got %d measurements, want 3", len(ms))
				}
			},
		},
		{
			name:  "custom units ignored",
			input: "BenchmarkIO  5  200 ns/op  88.4 MB/s  3 widgets/op\n",
			check: func(t *testing.T, ms []Measurement, _ Context) {
				m := ms[0]
				if m.NsOp != 200 || m.HasBOp || m.HasAllocs {
					t.Errorf("custom units leaked into %+v", m)
				}
			},
		},
		{
			name: "context captured",
			input: "goos: linux\ngoarch: amd64\npkg: repro/internal/portfolio\n" +
				"cpu: Intel(R) Xeon(R)\nBenchmarkY  1  5 ns/op\n",
			check: func(t *testing.T, _ []Measurement, ctx Context) {
				if ctx.GOOS != "linux" || ctx.GOARCH != "amd64" ||
					ctx.Pkg != "repro/internal/portfolio" || !strings.Contains(ctx.CPU, "Xeon") {
					t.Errorf("context not captured: %+v", ctx)
				}
			},
		},
		{
			name:    "malformed iteration count",
			input:   "BenchmarkBad  xyz  100 ns/op\n",
			wantErr: true,
		},
		{
			name:    "malformed metric value",
			input:   "BenchmarkBad  10  abc ns/op\n",
			wantErr: true,
		},
		{
			name:    "truncated line",
			input:   "BenchmarkBad  10\n",
			wantErr: true,
		},
		{
			name:    "benchmark line without ns/op",
			input:   "BenchmarkBad  10  99 B/op\n",
			wantErr: true,
		},
		{
			name:  "empty input",
			input: "",
			check: func(t *testing.T, ms []Measurement, _ Context) {
				if len(ms) != 0 {
					t.Errorf("measurements from empty input: %+v", ms)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, ctx, err := Parse(strings.NewReader(tc.input))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want error, got measurements %+v", ms)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, ms, ctx)
		})
	}
}

func TestStripProcs(t *testing.T) {
	type stripped struct {
		name  string
		procs int
	}
	cases := map[string]stripped{
		"BenchmarkFoo-8":              {"BenchmarkFoo", 8},
		"BenchmarkFoo":                {"BenchmarkFoo", 0},
		"BenchmarkFoo/sub=a-b-4":      {"BenchmarkFoo/sub=a-b", 4},
		"BenchmarkFoo/sub=a-b":        {"BenchmarkFoo/sub=a-b", 0}, // non-numeric tail survives
		"BenchmarkSweep/workers=1-16": {"BenchmarkSweep/workers=1", 16},
	}
	for in, want := range cases {
		if name, procs := stripProcs(in); name != want.name || procs != want.procs {
			t.Errorf("stripProcs(%q) = %q, %d, want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}

func TestAggregateMedianAndMAD(t *testing.T) {
	ms := []Measurement{
		{Name: "BenchmarkA", NsOp: 100, BOp: 10, AllocsOp: 2, HasBOp: true, HasAllocs: true},
		{Name: "BenchmarkA", NsOp: 110, BOp: 10, AllocsOp: 2, HasBOp: true, HasAllocs: true},
		{Name: "BenchmarkA", NsOp: 300, BOp: 10, AllocsOp: 2, HasBOp: true, HasAllocs: true}, // outlier
		{Name: "BenchmarkB", NsOp: 50},
	}
	agg := Aggregate(ms)
	a := agg["BenchmarkA"]
	if a.NsOp.Median != 110 {
		t.Errorf("median ns/op = %g, want 110 (robust to the outlier)", a.NsOp.Median)
	}
	// deviations |100-110|, |110-110|, |300-110| = 10, 0, 190 → MAD 10.
	if a.NsOp.MAD != 10 {
		t.Errorf("MAD = %g, want 10", a.NsOp.MAD)
	}
	if a.BOp.Median != 10 || a.BOp.MAD != 0 || a.AllocsOp.Median != 2 {
		t.Errorf("benchmem aggregates wrong: %+v", a)
	}
	if a.NsOp.N != 3 || a.BOp.N != 3 {
		t.Errorf("sample counts wrong: %+v", a)
	}
	b := agg["BenchmarkB"]
	if b.NsOp.Median != 50 || b.BOp.present() || b.AllocsOp.present() {
		t.Errorf("BenchmarkB aggregate wrong: %+v", b)
	}
	// Even-length median.
	even := Aggregate([]Measurement{{Name: "C", NsOp: 1}, {Name: "C", NsOp: 3}})
	if m := even["C"].NsOp.Median; m != 2 {
		t.Errorf("even median = %g, want 2", m)
	}
}
