package benchgate

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
)

// baselineSchema versions the JSON layout of baseline and trajectory
// files.
const baselineSchema = 1

// Baseline is the committed reference the gate compares against.
type Baseline struct {
	Schema int `json:"schema"`
	// Context records where the baseline was measured. Informational:
	// timing tolerances, not the gate, absorb machine differences.
	Context Context `json:"context,omitempty"`
	// Ratios are the ratio gates every run must meet.
	Ratios []Ratio `json:"ratios,omitempty"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to its
	// aggregated sample.
	Benchmarks map[string]Sample `json:"benchmarks"`
}

// Ratio is one row of the baseline's ratio table: the Speedup of the
// benchmarks matching Numerator over those matching Denominator must
// reach Min. A ratio of two arms measured in the same run is
// machine-relative, so it gates where absolute timings do not travel.
// Machines with fewer than MinCPUs CPUs skip the row: a parallel
// speedup needs cores to show.
type Ratio struct {
	Name        string  `json:"name"`
	Numerator   string  `json:"numerator"`
	Denominator string  `json:"denominator"`
	Min         float64 `json:"min"`
	MinCPUs     int     `json:"min_cpus"`
}

// NewBaseline builds a baseline from aggregated samples.
func NewBaseline(cur map[string]Sample, ctx Context) *Baseline {
	return &Baseline{Schema: baselineSchema, Context: ctx, Benchmarks: cur}
}

// LoadBaseline reads and validates a baseline JSON file.
func LoadBaseline(path string) (*Baseline, error) {
	var b Baseline
	if err := loadJSON(path, "baseline", &b); err != nil {
		return nil, err
	}
	if b.Schema != baselineSchema {
		return nil, fmt.Errorf("benchgate: baseline %s has schema %d, want %d", path, b.Schema, baselineSchema)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchgate: baseline %s gates no benchmarks", path)
	}
	for _, r := range b.Ratios {
		_, errNum := regexp.Compile(r.Numerator)
		_, errDen := regexp.Compile(r.Denominator)
		if err := errors.Join(errNum, errDen); err != nil || r.Name == "" || !(r.Min > 0) {
			return nil, fmt.Errorf("benchgate: baseline %s: bad ratio row %+v: %v", path, r, err)
		}
	}
	return &b, nil
}

// Save writes the baseline as deterministic, indented JSON (map keys
// are sorted by encoding/json).
func (b *Baseline) Save(path string) error { return saveJSON(path, "baseline", b) }

// saveJSON writes v to path as indented JSON with a trailing newline.
func saveJSON(path, what string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("benchgate: encoding %s: %w", what, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("benchgate: writing %s: %w", what, err)
	}
	return nil
}

// Trajectory is the machine-readable artifact one gate run emits
// (BENCH_<n>.json): the aggregated current samples, the comparison
// findings against the baseline, and the overall verdict. Committed
// trajectory files form the repository's performance history.
type Trajectory struct {
	Schema int `json:"schema"`
	// Label identifies the run, e.g. "PR 4".
	Label   string  `json:"label,omitempty"`
	Context Context `json:"context,omitempty"`
	// Baseline is the path of the baseline the run compared against.
	Baseline   string            `json:"baseline,omitempty"`
	Benchmarks map[string]Sample `json:"benchmarks"`
	Findings   []Finding         `json:"findings"`
	Pass       bool              `json:"pass"`
}

// NewTrajectory assembles the artifact for one gate run.
func NewTrajectory(label, baselinePath string, ctx Context, cur map[string]Sample, rep *Report) *Trajectory {
	return &Trajectory{
		Schema:     baselineSchema,
		Label:      label,
		Context:    ctx,
		Baseline:   baselinePath,
		Benchmarks: cur,
		Findings:   rep.Findings,
		Pass:       rep.Pass(),
	}
}

// Save writes the trajectory as deterministic, indented JSON.
func (t *Trajectory) Save(path string) error { return saveJSON(path, "trajectory", t) }

// LoadTrajectory reads a trajectory artifact back, for round-trip
// verification and history tooling.
func LoadTrajectory(path string) (*Trajectory, error) {
	var t Trajectory
	if err := loadJSON(path, "trajectory", &t); err != nil {
		return nil, err
	}
	return &t, nil
}

// loadJSON decodes the JSON file at path into v.
func loadJSON(path, what string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchgate: reading %s: %w", what, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("benchgate: parsing %s %s: %w", what, path, err)
	}
	return nil
}
