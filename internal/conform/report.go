package conform

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"repro/internal/genscen"
)

// shortDigest abbreviates a digest for display, tolerating truncated
// or hand-mangled corpus entries.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// errWriter latches the first write error so the rendering code can
// stay a straight-line sequence of Fprintf calls; a truncated report
// (full disk, closed pipe) must surface as an error, not exit 0.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}

// family is what the report code both harnesses share reads from one
// family result (FamilyResult or FleetFamilyResult).
type family interface {
	head() (name, digest string, violations []Violation)
	// line is the family's NDJSON object, its violations counted.
	line() any
}

func (f FamilyResult) head() (string, string, []Violation) {
	return f.Family, f.Digest, f.Violations
}

func (f FamilyResult) line() any {
	return struct {
		Type string `json:"type"`
		FamilyResult
		Violations int `json:"violations"` // shadows the slice with a count
	}{"family", f, len(f.Violations)}
}

// violationCount totals violations across families.
func violationCount[F family](fams []F) int {
	n := 0
	for _, f := range fams {
		_, _, vs := f.head()
		n += len(vs)
	}
	return n
}

// digests returns the per-family digest map (family name → hex).
func digests[F family](fams []F) map[string]string {
	m := make(map[string]string, len(fams))
	for _, f := range fams {
		name, d, _ := f.head()
		m[name] = d
	}
	return m
}

// writeViolations ends a Markdown report with its violation count and
// list, and returns the count.
func writeViolations[F family](w io.Writer, fams []F) int {
	n := violationCount(fams)
	fmt.Fprintf(w, "\n%d violation(s).\n", n)
	if n > 0 {
		fmt.Fprintf(w, "\n## Violations\n\n")
		for _, f := range fams {
			_, _, vs := f.head()
			for _, v := range vs {
				fmt.Fprintf(w, "- `%s` seed %d [%s]: %s\n", v.Family, v.Seed, v.Check, v.Detail)
			}
		}
	}
	return n
}

// writeNDJSON renders a report as newline-delimited JSON: each family's
// line object followed by one "violation" object per violation, then a
// trailing "summary" object holding summary's fields plus the family
// and violation counts — a stable machine surface for CI and
// dashboards.
func writeNDJSON[F family](w io.Writer, fams []F, summary map[string]any) error {
	type violationLine struct {
		Type string `json:"type"`
		Violation
	}
	enc := json.NewEncoder(w)
	for _, f := range fams {
		if err := enc.Encode(f.line()); err != nil {
			return err
		}
		_, _, vs := f.head()
		for _, v := range vs {
			if err := enc.Encode(violationLine{Type: "violation", Violation: v}); err != nil {
				return err
			}
		}
	}
	summary["type"] = "summary"
	summary["families"] = len(fams)
	summary["violations"] = violationCount(fams)
	return enc.Encode(summary)
}

// ViolationCount totals violations across families.
func (r *Report) ViolationCount() int { return violationCount(r.Families) }

// Digests returns the per-family digest map (family name → hex).
func (r *Report) Digests() map[string]string { return digests(r.Families) }

// Markdown renders the report as a human-readable summary table plus a
// violation list.
func (r *Report) Markdown(out io.Writer) error {
	ew := &errWriter{w: out}
	var w io.Writer = ew
	fmt.Fprintf(w, "# Conformance report\n\n")
	fmt.Fprintf(w, "seeds=%d baseSeed=%d workers=%d grid=%d oracleMaxApps=%d apps=[%d,%d]\n\n",
		r.Seeds, r.BaseSeed, r.Workers, r.Grid, r.OracleMaxApps, r.MinApps, r.MaxApps)
	fmt.Fprintf(w, "| family | scenarios | oracle runs | gap min | gap geomean | gap max | violations | digest |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, f := range r.Families {
		gapMin, gapGeo, gapMax := "-", "-", "-"
		if f.OracleRuns > 0 {
			gapMin = fmt.Sprintf("%.6f", f.GapMin)
			gapGeo = fmt.Sprintf("%.6f", f.GapGeoMean)
			gapMax = fmt.Sprintf("%.6f", f.GapMax)
		}
		fmt.Fprintf(w, "| %s | %d | %d | %s | %s | %s | %d | %s |\n",
			f.Family, f.Scenarios, f.OracleRuns, gapMin, gapGeo, gapMax,
			len(f.Violations), shortDigest(f.Digest))
	}
	hasSelector := false
	for _, f := range r.Families {
		hasSelector = hasSelector || f.Selector != nil
	}
	if hasSelector {
		fmt.Fprintf(w, "\n## Learned selection\n\n")
		fmt.Fprintf(w, "| family | races | predicted | fallbacks | fallback ratio | sel gap max | sel gap geomean |\n")
		fmt.Fprintf(w, "|---|---:|---:|---:|---:|---:|---:|\n")
		for _, f := range r.Families {
			s := f.Selector
			if s == nil {
				continue
			}
			gapMax, gapGeo := "-", "-"
			if s.Predicted > 0 {
				gapMax = fmt.Sprintf("%.6f", s.GapMax)
				gapGeo = fmt.Sprintf("%.6f", s.GapGeoMean)
			}
			fmt.Fprintf(w, "| %s | %d | %d | %d | %.3f | %s | %s |\n",
				f.Family, s.Races, s.Predicted, s.Fallbacks, s.FallbackRatio, gapMax, gapGeo)
		}
	}
	rt := r.ReplanTotals()
	fmt.Fprintf(w, "\nreplan: %d fast-path / %d full-solve allocations, memo hit rate %.3f\n",
		rt.FastPath, rt.FullSolve, rt.HitRate())
	if writeViolations(w, r.Families) > 0 {
		// The repro command must carry every generation parameter:
		// genscen instances depend on the app bounds and the checks on
		// grid/oracle-max, so a hint with defaults would regenerate a
		// different scenario under non-default flags.
		extra := fmt.Sprintf(" -grid %d -oracle-max %d", r.Grid, r.OracleMaxApps)
		if r.MinApps != 0 || r.MaxApps != 0 {
			extra += fmt.Sprintf(" -min-apps %d -max-apps %d", r.MinApps, r.MaxApps)
		}
		fmt.Fprintf(w, "\nReproduce one with: `conform -families <family> -seeds 1 -seed <seed>%s`\n", extra)
	}
	return ew.err
}

// NDJSON renders the report as newline-delimited JSON: one "family"
// object per family, one "violation" object per violation, and a
// trailing "summary" object that adds the replan totals.
func (r *Report) NDJSON(w io.Writer) error {
	rt := r.ReplanTotals()
	return writeNDJSON(w, r.Families, map[string]any{
		"seeds": r.Seeds, "baseSeed": r.BaseSeed, "workers": r.Workers,
		"replan": rt, "memoHitRate": rt.HitRate(),
	})
}

// NodeParams are the single-node harness's scenario parameters beyond
// its seeds: the oracle's share grid and instance bound, and the
// bounds on generated application counts. The fleet harness has none.
type NodeParams struct {
	Grid          int `json:"grid"`
	OracleMaxApps int `json:"oracleMaxApps"`
	MinApps       int `json:"minApps"`
	MaxApps       int `json:"maxApps"`
}

// Golden is the committed digest corpus of either harness: the
// parameters the digests were computed under plus one digest per
// family. A single-node corpus records its NodeParams; a fleet corpus
// has none (nil). Workers is deliberately absent — digests are
// worker-count invariant (checked by the harness itself).
type Golden struct {
	Seeds    int    `json:"seeds"`
	BaseSeed uint64 `json:"baseSeed"`
	*NodeParams
	Digests map[string]string `json:"digests"`
}

// Golden extracts the report's digest corpus.
func (r *Report) Golden() *Golden {
	p := r.NodeParams
	return &Golden{Seeds: r.Seeds, BaseSeed: r.BaseSeed, NodeParams: &p, Digests: r.Digests()}
}

// Options returns opt set up to regenerate exactly the scenarios the
// corpus was computed from: the corpus's seeds, parameters and family
// set replace opt's, and opt's worker count, metrics and selector stay,
// because the digests do not depend on them. The family set is derived
// from the stored digest keys, so a subset corpus round-trips through
// Run without spurious "absent family" diffs.
func (g *Golden) Options(opt Options) Options {
	var p NodeParams
	if g.NodeParams != nil {
		p = *g.NodeParams
	}
	opt.Seeds, opt.BaseSeed = g.Seeds, g.BaseSeed
	opt.Families = corpusFamilies(genscen.Families, g.Digests)
	opt.Grid, opt.OracleMaxApps = p.Grid, p.OracleMaxApps
	opt.Gen = genscen.Config{MinApps: p.MinApps, MaxApps: p.MaxApps}
	return opt
}

// FleetOptions is Options for the fleet harness: the corpus's seeds and
// family set replace opt's.
func (g *Golden) FleetOptions(opt FleetOptions) FleetOptions {
	opt.Seeds, opt.BaseSeed = g.Seeds, g.BaseSeed
	opt.Families = corpusFamilies(genscen.FleetFamilies, g.Digests)
	return opt
}

// corpusFamilies returns the members of all that digests has an entry
// for, in the order of all.
func corpusFamilies[F fmt.Stringer](all []F, digests map[string]string) []F {
	var fams []F
	for _, f := range all {
		if _, ok := digests[f.String()]; ok {
			fams = append(fams, f)
		}
	}
	return fams
}

// params renders the parameters the corpus's digests were computed
// under; two corpora are comparable iff they render equal.
func (g *Golden) params() string {
	s := fmt.Sprintf("seeds=%d baseSeed=%d", g.Seeds, g.BaseSeed)
	if p := g.NodeParams; p != nil {
		s += fmt.Sprintf(" grid=%d oracleMaxApps=%d apps=[%d,%d]", p.Grid, p.OracleMaxApps, p.MinApps, p.MaxApps)
	}
	return s
}

// Compare returns human-readable mismatch descriptions between the
// golden corpus and run, the corpus of a report (empty = conformant),
// in family-name order. A parameter mismatch is reported alone:
// digests computed under different parameters are incomparable. When
// run is a fleet corpus, every description starts with "fleet".
func (g *Golden) Compare(run *Golden) []string {
	mode := ""
	if run.NodeParams == nil {
		mode = "fleet "
	}
	if want, got := g.params(), run.params(); want != got {
		return []string{fmt.Sprintf("%sgolden corpus computed under %s; report ran %s", mode, want, got)}
	}
	union := map[string]string{}
	maps.Copy(union, g.Digests)
	maps.Copy(union, run.Digests)
	var diffs []string
	for _, name := range slices.Sorted(maps.Keys(union)) {
		want, inGolden := g.Digests[name]
		cur, ran := run.Digests[name]
		var d string
		switch {
		case !ran:
			d = "in golden corpus but absent from report"
		case !inGolden:
			d = "not in golden corpus (regenerate with -update)"
		case cur != want:
			d = fmt.Sprintf("digest %s… != golden %s…", shortDigest(cur), shortDigest(want))
		default:
			continue
		}
		diffs = append(diffs, fmt.Sprintf("%sfamily %s: %s", mode, name, d))
	}
	return diffs
}

// LoadGolden reads a golden corpus from disk.
func LoadGolden(path string) (*Golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("conform: parsing golden corpus %s: %w", path, err)
	}
	if len(g.Digests) == 0 {
		return nil, fmt.Errorf("conform: golden corpus %s has no digests", path)
	}
	return &g, nil
}

// SaveGolden writes a golden corpus to disk (indented, trailing
// newline, stable key order — a reviewable committed artifact).
func SaveGolden(path string, g *Golden) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
