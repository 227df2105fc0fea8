package benchgate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
)

// baselineSchema versions the JSON layout of baseline files and
// trajectory lines.
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
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchgate: reading baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchgate: parsing baseline %s: %w", path, err)
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
// are sorted by encoding/json) with a trailing newline.
func (b *Baseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("benchgate: encoding baseline: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("benchgate: writing baseline: %w", err)
	}
	return nil
}

// Trajectory is one point of the benchmark history: what one gate run
// measured (the aggregated samples), the findings against the baseline
// and the verdict, tagged with the run's label, git commit and machine
// context. Runs append it as one compact JSON line to an append-only
// NDJSON file (benchmarks/trajectory.ndjson), so the committed file is
// the repository's performance trajectory.
type Trajectory struct {
	Schema int `json:"schema"`
	// Label identifies the run, e.g. a short git SHA.
	Label string `json:"label,omitempty"`
	// SHA is the git commit the run measured, when known.
	SHA     string  `json:"sha,omitempty"`
	Context Context `json:"context,omitempty"`
	// Baseline is the path of the baseline the run compared against.
	Baseline   string            `json:"baseline,omitempty"`
	Benchmarks map[string]Sample `json:"benchmarks"`
	Findings   []Finding         `json:"findings"`
	Pass       bool              `json:"pass"`
}

// NewTrajectory assembles the trajectory point of one gate run.
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

// Append adds the trajectory to the NDJSON file at path as one compact
// line, creating the file if needed. The encoding is deterministic (map
// keys are sorted).
func (t *Trajectory) Append(path string) error {
	line, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("benchgate: encoding trajectory: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("benchgate: opening trajectory: %w", err)
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("benchgate: appending to trajectory %s: %w", path, err)
	}
	return nil
}

// LoadTrajectory reads every point of an NDJSON trajectory file, oldest
// first. Blank lines are skipped; any other line that does not decode
// is an error, so a corrupt history is never read as a shorter one.
func LoadTrajectory(path string) ([]Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchgate: reading trajectory: %w", err)
	}
	var points []Trajectory
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var t Trajectory
		if err := json.Unmarshal(line, &t); err != nil {
			return nil, fmt.Errorf("benchgate: trajectory %s line %d: %w", path, i+1, err)
		}
		points = append(points, t)
	}
	return points, nil
}
