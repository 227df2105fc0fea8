// Command pipeline plans periodic in-situ analysis workloads (the
// paper's Section 1 motivation): given an analysis fleet and a node, it
// reports per-batch latency, searches the best pipelining depth, and
// simulates arrival streams to expose lateness and backlog under a given
// batch period.
//
// Usage:
//
//	pipeline                          # plan the built-in demo fleet
//	pipeline -apps fleet.json -p 64 -depth 4
//	pipeline -period 5e9 -batches 100 # feasibility at a given cadence
//	pipeline -maxdepth 8              # search pipelining depths 1..8
//
// The JSON fleet format matches cmd/cosched's -apps format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/des"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pipeline", flag.ContinueOnError)
	var (
		appsPath  = fs.String("apps", "", "JSON file describing the analysis fleet (default: NPB Table 2 with 5% sequential fractions)")
		heuristic = fs.String("heuristic", "DominantMinRatio", "co-scheduling policy")
		procs     = fs.Float64("p", 64, "processor count of the analysis node")
		cache     = fs.Float64("cache", 1e9, "LLC size in bytes")
		ls        = fs.Float64("ls", 0.17, "cache access latency")
		ll        = fs.Float64("ll", 1, "cache miss latency")
		alpha     = fs.Float64("alpha", 0.5, "power-law exponent")
		depth     = fs.Int("depth", 0, "pipelining depth (0 = search up to -maxdepth)")
		maxDepth  = fs.Int("maxdepth", 6, "depth search bound when -depth is 0")
		period    = fs.Float64("period", 0, "simulate arrivals at this batch period (0 = 5% above sustainable)")
		batches   = fs.Int("batches", 60, "batches to simulate")
		seed      = fs.Uint64("seed", 42, "seed for randomized heuristics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	h, err := sched.ParseHeuristic(*heuristic)
	if err != nil {
		return err
	}
	pl := model.Platform{Processors: *procs, CacheSize: *cache, LatencyS: *ls, LatencyL: *ll, Alpha: *alpha}

	fleet, err := loadFleet(*appsPath)
	if err != nil {
		return err
	}

	cfg := pipeline.Config{Platform: pl, Analyses: fleet, Heuristic: h, Depth: *depth, RNG: solve.NewRNG(*seed)}
	var plan *pipeline.Plan
	if *depth > 0 {
		plan, err = pipeline.NewPlan(cfg)
	} else {
		plan, err = pipeline.BestDepth(cfg, *maxDepth)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "fleet: %d analyses   node: p=%g Cs=%.3g   policy: %v\n", len(fleet), pl.Processors, pl.CacheSize, h)
	fmt.Fprintf(out, "pipelining depth:    %d\n", plan.Depth)
	fmt.Fprintf(out, "batch latency:       %.6g\n", plan.BatchLatency)
	fmt.Fprintf(out, "sustainable period:  %.6g\n", plan.SustainablePeriod)

	simPeriod := *period
	if simPeriod <= 0 {
		simPeriod = plan.SustainablePeriod * 1.05
	}
	st, err := plan.SimulateArrivals(simPeriod, *batches)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nsimulating %d batches every %.6g:\n", *batches, simPeriod)
	fmt.Fprintf(out, "  sustainable:  %v\n", st.Sustainable)
	fmt.Fprintf(out, "  max backlog:  %d batches\n", st.MaxBacklog)
	fmt.Fprintf(out, "  mean latency: %.6g\n", st.MeanLatency)
	if !st.Sustainable {
		fmt.Fprintf(out, "  max lateness: %.6g — the pipeline falls behind at this cadence\n", st.MaxLateness)
	}
	return nil
}

// loadFleet reads a JSON fleet, or returns the NPB set with 5%
// sequential fractions when path is empty.
func loadFleet(path string) ([]model.Application, error) {
	if path == "" {
		fleet := workload.NPB()
		for i := range fleet {
			fleet[i].SeqFraction = 0.05
		}
		return fleet, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var in []des.AppSpec
	if err := json.Unmarshal(raw, &in); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	fleet := make([]model.Application, 0, len(in))
	for _, a := range in {
		fleet = append(fleet, a.Application())
	}
	return fleet, nil
}
