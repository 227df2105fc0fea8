// Package benchgate turns `go test -bench` output into a statistical
// regression gate. It parses benchmark lines from repeated runs
// (-count=N), aggregates each benchmark × metric into a median with a
// MAD (median absolute deviation) noise window, compares the result
// against a committed JSON baseline with per-metric tolerances, and
// appends a machine-readable point to the benchmark trajectory
// (benchmarks/trajectory.ndjson). A
// regression is flagged only when it is both outside the relative
// tolerance AND outside the noise window, so the gate follows the
// repeated-measurement methodology of the source paper instead of
// diffing single noisy runs. Baseline entries missing from the new run
// fail loudly — a silently disappearing benchmark is a gate bypass,
// not a pass.
package benchgate

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Measurement is one parsed benchmark result line.
type Measurement struct {
	// Name is the benchmark name with the trailing GOMAXPROCS suffix
	// ("-8") stripped, so baselines recorded on machines with different
	// core counts still align.
	Name string
	// Iterations is the b.N the line reports.
	Iterations int64
	// NsOp is the ns/op value; every benchmark line has one.
	NsOp float64
	// BOp and AllocsOp are the -benchmem metrics; Has* report presence.
	BOp       float64
	AllocsOp  float64
	HasBOp    bool
	HasAllocs bool
}

// Context is the run metadata `go test -bench` prints before results,
// plus the GOMAXPROCS its benchmark names carry as a "-N" suffix (the
// suffix is stripped from Measurement.Name; 0 when no name has one).
type Context struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	Pkg        string `json:"pkg,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

// Parse reads `go test -bench` output and returns every benchmark
// measurement plus the run context. Lines that do not start with
// "Benchmark" are metadata or test chatter and are skipped (context
// lines are captured); a line that starts with "Benchmark" but cannot
// be parsed is an error — truncated or corrupted bench logs must not
// silently weaken the gate.
func Parse(r io.Reader) ([]Measurement, Context, error) {
	var (
		ms  []Measurement
		ctx Context
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			ctx.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			ctx.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			// Several packages may contribute; keep them all, comma-joined.
			p := strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			if ctx.Pkg == "" {
				ctx.Pkg = p
			} else if !strings.Contains(ctx.Pkg, p) {
				ctx.Pkg += "," + p
			}
			continue
		case strings.HasPrefix(line, "cpu:"):
			ctx.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		m, procs, err := parseLine(line)
		if err != nil {
			return nil, ctx, fmt.Errorf("benchgate: line %d: %w", lineNo, err)
		}
		if ctx.GOMAXPROCS == 0 {
			ctx.GOMAXPROCS = procs
		}
		ms = append(ms, m)
	}
	if err := sc.Err(); err != nil {
		return nil, ctx, fmt.Errorf("benchgate: reading bench output: %w", err)
	}
	return ms, ctx, nil
}

// parseLine parses one "BenchmarkFoo/sub-8  100  123 ns/op  4 B/op  2 allocs/op"
// line, returning the measurement and the name's GOMAXPROCS suffix.
func parseLine(line string) (Measurement, int, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Measurement{}, 0, fmt.Errorf("malformed benchmark line %q: want at least name, iterations and one metric", line)
	}
	name, procs := stripProcs(fields[0])
	m := Measurement{Name: name}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters < 0 {
		return Measurement{}, 0, fmt.Errorf("malformed iteration count %q in %q", fields[1], line)
	}
	m.Iterations = iters
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Measurement{}, 0, fmt.Errorf("malformed metric value %q in %q", fields[i], line)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			m.NsOp = val
			sawNs = true
		case "B/op":
			m.BOp = val
			m.HasBOp = true
		case "allocs/op":
			m.AllocsOp = val
			m.HasAllocs = true
		default:
			// Custom units (MB/s, user-reported metrics) pass through
			// unharvested; they are not gated.
		}
	}
	if !sawNs {
		return Measurement{}, 0, fmt.Errorf("benchmark line %q has no ns/op metric", line)
	}
	return m, procs, nil
}

// stripProcs removes the "-N" GOMAXPROCS suffix go test appends to
// benchmark names and returns N (0 without a suffix). The suffix is
// only stripped when it is a plain integer, so sub-benchmark names
// containing dashes survive intact.
func stripProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 0
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 0
	}
	return name[:i], procs
}
