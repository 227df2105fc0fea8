package benchgate

import (
	"fmt"
	"sort"
)

// Tolerances are the per-metric relative tolerances (in percent) and
// the MAD multiplier of the noise window. A change counts as
// significant only when it exceeds BOTH the relative tolerance and
// MADK × max(baseline MAD, current MAD) in absolute terms. A negative
// tolerance disables gating for that metric entirely (its findings
// are still reported, verdict ok): the CI bench job uses this for
// ns/op, whose absolute baseline does not travel across machines,
// while B/op and allocs/op — deterministic and machine-independent —
// stay strict everywhere.
type Tolerances struct {
	NsPct     float64 // ns/op tolerance, machine-sensitive → generous; < 0 disables
	BPct      float64 // B/op tolerance; < 0 disables
	AllocsPct float64 // allocs/op tolerance, deterministic → tight; < 0 disables
	MADK      float64 // noise window multiplier
}

// DefaultTolerances reflect each metric's stability: timing varies
// across machines and load, bytes and allocation counts are nearly
// deterministic.
func DefaultTolerances() Tolerances {
	return Tolerances{NsPct: 30, BPct: 10, AllocsPct: 5, MADK: 3}
}

// Verdict classifies one benchmark × metric comparison.
type Verdict string

const (
	// VerdictOK: within tolerance or inside the noise window.
	VerdictOK Verdict = "ok"
	// VerdictImprovement: significantly better than baseline.
	VerdictImprovement Verdict = "improvement"
	// VerdictRegression: significantly worse than baseline; fails the gate.
	VerdictRegression Verdict = "regression"
	// VerdictMissing: the baseline benchmark did not appear in the new
	// run; fails the gate (a vanished benchmark is a bypass, not a pass).
	VerdictMissing Verdict = "missing"
	// VerdictNew: the new run has a benchmark the baseline lacks;
	// informational (refresh the baseline to start gating it).
	VerdictNew Verdict = "new"
)

// Finding is one comparison outcome.
type Finding struct {
	Benchmark string  `json:"benchmark"`
	Metric    string  `json:"metric,omitempty"` // "ns/op", "B/op", "allocs/op"; empty for missing/new
	Base      float64 `json:"base,omitempty"`
	New       float64 `json:"new,omitempty"`
	DeltaPct  float64 `json:"delta_pct,omitempty"`
	Verdict   Verdict `json:"verdict"`
}

// String renders the finding for gate logs.
func (f Finding) String() string {
	switch f.Verdict {
	case VerdictMissing:
		return fmt.Sprintf("MISSING   %s: in baseline but absent from this run", f.Benchmark)
	case VerdictNew:
		return fmt.Sprintf("new       %s: not in baseline (refresh to gate it)", f.Benchmark)
	default:
		// "improvement" is 11 runes, wider than the pad: the explicit
		// space keeps verdict and benchmark name separated either way.
		return fmt.Sprintf("%-10s %s %s: %.6g -> %.6g (%+.1f%%)",
			f.Verdict, f.Benchmark, f.Metric, f.Base, f.New, f.DeltaPct)
	}
}

// Report is the full outcome of one gate run.
type Report struct {
	Findings []Finding `json:"findings"`
}

// Pass reports whether the gate passes: no regressions and no missing
// benchmarks.
func (r *Report) Pass() bool { return len(r.Failures()) == 0 }

// Failures returns the findings that fail the gate.
func (r *Report) Failures() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Verdict == VerdictRegression || f.Verdict == VerdictMissing {
			out = append(out, f)
		}
	}
	return out
}

// Compare gates the current aggregates against the baseline. Every
// baseline benchmark must appear in the current run (else
// VerdictMissing); per-metric comparisons follow the Tolerances
// semantics. Findings are sorted by benchmark name then metric, so
// reports are deterministic.
func Compare(base *Baseline, cur map[string]Sample, tol Tolerances) *Report {
	rep := &Report{}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bs := base.Benchmarks[name]
		cs, ok := cur[name]
		if !ok {
			rep.Findings = append(rep.Findings, Finding{Benchmark: name, Verdict: VerdictMissing})
			continue
		}
		rep.Findings = append(rep.Findings, compareMetric(name, "ns/op", bs.NsOp, cs.NsOp, tol.NsPct, tol.MADK)...)
		rep.Findings = append(rep.Findings, compareMetric(name, "B/op", bs.BOp, cs.BOp, tol.BPct, tol.MADK)...)
		rep.Findings = append(rep.Findings, compareMetric(name, "allocs/op", bs.AllocsOp, cs.AllocsOp, tol.AllocsPct, tol.MADK)...)
	}
	var extra []string
	for name := range cur {
		if _, ok := base.Benchmarks[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		rep.Findings = append(rep.Findings, Finding{Benchmark: name, Verdict: VerdictNew})
	}
	return rep
}

// compareMetric produces at most one finding for a benchmark metric. A
// metric absent on either side is not comparable and yields nothing
// (e.g. a baseline recorded without -benchmem); a negative tolerance
// reports the delta without ever flagging it.
func compareMetric(bench, metric string, base, cur Metric, tolPct, madK float64) []Finding {
	if !base.present() || !cur.present() {
		return nil
	}
	f := Finding{Benchmark: bench, Metric: metric, Base: base.Median, New: cur.Median, Verdict: VerdictOK}
	diff := cur.Median - base.Median
	if base.Median != 0 {
		f.DeltaPct = diff / base.Median * 100
	} else if cur.Median != 0 {
		f.DeltaPct = 100 // degenerate zero baseline: any growth is "100%"
	}
	if tolPct < 0 {
		return []Finding{f}
	}
	noise := madK * maxF(base.MAD, cur.MAD)
	tolAbs := base.Median * tolPct / 100
	switch {
	case diff > tolAbs && diff > noise:
		f.Verdict = VerdictRegression
	case -diff > tolAbs && -diff > noise:
		f.Verdict = VerdictImprovement
	}
	return []Finding{f}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
