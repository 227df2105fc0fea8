package conform

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/genscen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
)

// FleetOptions parameterizes a fleet-conformance run.
type FleetOptions struct {
	// Seeds is the number of scenarios per fleet family; seed values
	// are BaseSeed, BaseSeed+1, … Zero defaults to 10.
	Seeds int
	// BaseSeed is the first seed (zero is valid; the CLI defaults to 1).
	BaseSeed uint64
	// Families to generate; nil means every fleet family.
	Families []genscen.FleetFamily
	// Workers is reported with the results and otherwise unused: fleet
	// runs race on the simulating goroutine. Zero defaults to 8.
	Workers int
	// Metrics optionally instruments every simulation; digests are
	// identical with and without it.
	Metrics *obs.Registry
}

func (o FleetOptions) normalized() FleetOptions {
	if o.Seeds <= 0 {
		o.Seeds = 10
	}
	if len(o.Families) == 0 {
		o.Families = append([]genscen.FleetFamily(nil), genscen.FleetFamilies...)
	}
	if o.Workers == 0 {
		o.Workers = 8
	}
	return o
}

// FleetFamilyResult aggregates one fleet family's scenarios.
type FleetFamilyResult struct {
	Family    string `json:"family"`
	Scenarios int    `json:"scenarios"`
	Digest    string `json:"digest"`
	// BestRouting counts, per routing policy, how many scenarios it won
	// (lowest mean stretch; ties to the first policy in Routings order).
	BestRouting map[string]int `json:"bestRouting"`
	Violations  []Violation    `json:"violations,omitempty"`
}

// FleetReport is the outcome of one fleet-conformance run.
type FleetReport struct {
	Seeds    int                 `json:"seeds"`
	BaseSeed uint64              `json:"baseSeed"`
	Workers  int                 `json:"workers"`
	Families []FleetFamilyResult `json:"families"`
}

func (f FleetFamilyResult) head() (string, string, []Violation) {
	return f.Family, f.Digest, f.Violations
}

func (f FleetFamilyResult) line() any {
	return struct {
		Type string `json:"type"`
		FleetFamilyResult
		Violations int `json:"violations"` // shadows the slice with a count
	}{"fleet-family", f, len(f.Violations)}
}

// ViolationCount totals violations across fleet families.
func (r *FleetReport) ViolationCount() int { return violationCount(r.Families) }

// Digests returns the per-family digest map (family name → hex).
func (r *FleetReport) Digests() map[string]string { return digests(r.Families) }

// Golden extracts the report's digest corpus, which has no NodeParams.
func (r *FleetReport) Golden() *Golden {
	return &Golden{Seeds: r.Seeds, BaseSeed: r.BaseSeed, Digests: r.Digests()}
}

// Markdown renders the fleet report as a human-readable summary.
func (r *FleetReport) Markdown(out io.Writer) error {
	ew := &errWriter{w: out}
	fmt.Fprintf(ew, "# Fleet conformance report\n\n")
	fmt.Fprintf(ew, "seeds=%d baseSeed=%d workers=%d\n\n", r.Seeds, r.BaseSeed, r.Workers)
	fmt.Fprintf(ew, "| family | scenarios | best routing | violations | digest |\n")
	fmt.Fprintf(ew, "|---|---:|---|---:|---|\n")
	for _, f := range r.Families {
		var best []string
		for _, name := range fleet.Routings {
			if n := f.BestRouting[name]; n > 0 {
				best = append(best, fmt.Sprintf("%s:%d", name, n))
			}
		}
		fmt.Fprintf(ew, "| %s | %d | %s | %d | %s |\n",
			f.Family, f.Scenarios, strings.Join(best, " "), len(f.Violations), shortDigest(f.Digest))
	}
	writeViolations(ew, r.Families)
	return ew.err
}

// NDJSON renders the fleet report as newline-delimited JSON: one
// "fleet-family" object per family, one "violation" object per
// violation, and a trailing "summary" object.
func (r *FleetReport) NDJSON(w io.Writer) error {
	return writeNDJSON(w, r.Families, map[string]any{
		"seeds": r.Seeds, "baseSeed": r.BaseSeed, "workers": r.Workers,
	})
}

// RunFleet executes the fleet harness; see RunFleetContext.
func RunFleet(opt FleetOptions) (*FleetReport, error) {
	return RunFleetContext(context.Background(), opt)
}

// RunFleetContext runs the fleet-conformance sweep: for every (fleet
// family, seed) scenario it checks
//
//   - routing-determinism: every routing policy's full fleet result —
//     routing log and all node event logs — is bit-identical when one
//     build simulates the same spec twice;
//   - single-node reduction: a one-node fleet is bit-identical to a
//     standalone internal/des run of that node with the derived policy
//     seed (fleet adds routing, never arithmetic);
//   - fleet-beats-solo: the best routing policy's mean stretch is no
//     worse than the best single node absorbing the whole stream alone
//     — adding nodes behind a router must never hurt the aggregate;
//   - sample-path: every routing policy's routes per node match the
//     node's job counts, and every node's accounting holds
//     (checkFleetSamplePath).
//
// Every scenario contributes each routing policy's canonical digest to
// a per-family digest compared against a committed golden corpus (a
// Golden without NodeParams), so any behavioral drift of the routing
// layer or the node engines fails the gate.
func RunFleetContext(ctx context.Context, opt FleetOptions) (*FleetReport, error) {
	opt = opt.normalized()
	rep := &FleetReport{Seeds: opt.Seeds, BaseSeed: opt.BaseSeed, Workers: opt.Workers}
	for _, fam := range opt.Families {
		fr := FleetFamilyResult{Family: fam.String(), BestRouting: map[string]int{}}
		famHash := sha256.New()
		for i := 0; i < opt.Seeds; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			seed := opt.BaseSeed + uint64(i)
			in, err := genscen.GenerateFleet(fam, seed)
			if err != nil {
				return nil, err
			}
			digest, best, violations, err := runFleetScenario(ctx, in, opt)
			if err != nil {
				return nil, fmt.Errorf("conform: %s seed %d: %w", fam, seed, err)
			}
			fr.Scenarios++
			famHash.Write([]byte(digest))
			if best != "" {
				fr.BestRouting[best]++
			}
			fr.Violations = append(fr.Violations, violations...)
		}
		fr.Digest = hex.EncodeToString(famHash.Sum(nil))
		rep.Families = append(rep.Families, fr)
	}
	return rep, nil
}

// fleetSpan derives the arrival-stagger horizon of a scenario: the
// static makespan of the whole job set on node 0 under the default
// heuristic. On that scale arrivals overlap on every node without
// serializing the run.
func fleetSpan(in *genscen.FleetInstance) (float64, error) {
	s, err := sched.DominantMinRatio.Schedule(in.Nodes[0].Platform, append([]model.Application(nil), in.Apps...), nil)
	if err != nil {
		return 0, fmt.Errorf("span schedule: %w", err)
	}
	return s.Makespan, nil
}

// runFleetScenario executes every fleet check on one instance,
// returning the scenario digest, the winning routing policy and any
// violations.
func runFleetScenario(ctx context.Context, in *genscen.FleetInstance, opt FleetOptions) (string, string, []Violation, error) {
	var violations []Violation
	flag := func(check, format string, args ...any) {
		violations = append(violations, Violation{
			Family: in.Family.String(), Seed: in.Seed,
			Check: check, Detail: fmt.Sprintf(format, args...),
		})
	}
	span, err := fleetSpan(in)
	if err != nil {
		return "", "", nil, err
	}
	runFleet := func(sp *fleet.Spec) (*fleet.Result, error) {
		sc, err := sp.Build(0)
		if err != nil {
			return nil, err
		}
		sc.Metrics = des.NewMetrics(opt.Metrics)
		return fleet.SimulateContext(ctx, sc)
	}

	// Routing determinism across two runs, one digest per policy.
	var parts []string
	best, bestStretch := "", 0.0
	for _, routing := range fleet.Routings {
		sp, err := in.FleetSpec(routing, span)
		if err != nil {
			return "", "", nil, err
		}
		r1, err := runFleet(sp)
		if err != nil {
			return "", "", nil, fmt.Errorf("%s: %w", routing, err)
		}
		checkFleetSamplePath(r1, in.Nodes, routing+": ", flag)
		d1 := fleetDigest(r1)
		r2, err := runFleet(sp)
		if err != nil {
			return "", "", nil, fmt.Errorf("%s second run: %w", routing, err)
		}
		if d2 := fleetDigest(r2); d1 != d2 {
			flag("fleet-determinism", "%s: fleet run differs between two runs of one spec", routing)
		}
		parts = append(parts, routing+"\n"+d1)
		if best == "" || r1.Stretch.Mean < bestStretch {
			best, bestStretch = routing, r1.Stretch.Mean
		}
	}

	// Single-node reduction: node 0 alone behind the router must equal
	// a standalone des run with the derived policy seed.
	soloSpec := func(node int) (*fleet.Spec, error) {
		one := &genscen.FleetInstance{
			Family: in.Family, Seed: in.Seed,
			Nodes: in.Nodes[node : node+1], Apps: in.Apps, Offsets: in.Offsets,
		}
		return one.FleetSpec("least-loaded", span)
	}
	sp0, err := soloSpec(0)
	if err != nil {
		return "", "", nil, err
	}
	rf, err := runFleet(sp0)
	if err != nil {
		return "", "", nil, fmt.Errorf("single-node fleet: %w", err)
	}
	dsp := &des.Spec{
		Platform: sp0.Nodes[0].Platform,
		Arrivals: sp0.Arrivals,
		Policy:   in.Nodes[0].Policy,
		Seed:     fleet.NodePolicySeed(in.Seed, 0),
	}
	dsp.MaxResident = in.Nodes[0].MaxResident
	dsc, err := dsp.Build()
	if err != nil {
		return "", "", nil, err
	}
	dsc.Metrics = des.NewMetrics(opt.Metrics)
	rd, err := des.SimulateContext(ctx, dsc)
	if err != nil {
		return "", "", nil, fmt.Errorf("single-node des: %w", err)
	}
	if onlineDigest(rf.Nodes[0].Result) != onlineDigest(rd) {
		flag("fleet-reduction", "one-node fleet differs from the standalone des run")
	}

	// Fleet-beats-solo: the best routing's aggregate stretch must not
	// exceed the best single node's handling the entire stream alone.
	bestSolo := 0.0
	for i := range in.Nodes {
		spi, err := soloSpec(i)
		if err != nil {
			return "", "", nil, err
		}
		ri, err := runFleet(spi)
		if err != nil {
			return "", "", nil, fmt.Errorf("solo node %d: %w", i, err)
		}
		if i == 0 || ri.Stretch.Mean < bestSolo {
			bestSolo = ri.Stretch.Mean
		}
	}
	if bestStretch > bestSolo*(1+relTol) {
		flag("fleet-vs-solo", "best routing %s mean stretch %v worse than best single node %v",
			best, bestStretch, bestSolo)
	}

	sum := sha256.Sum256([]byte(strings.Join(parts, "\n") + "\nsolo\n" + hexFloat(bestSolo)))
	return hex.EncodeToString(sum[:]), best, violations, nil
}

// checkFleetSamplePath checks a fleet run's bookkeeping: the routes to
// each node equal that node's NodeResult.Jobs and the length of its
// per-job metrics, they sum to Result.Jobs, and each node's own run
// passes checkSamplePath.
func checkFleetSamplePath(r *fleet.Result, nodes []fleet.Node, prefix string, flag func(string, string, ...any)) {
	routed := make([]int, len(r.Nodes))
	for _, rt := range r.Routes {
		routed[rt.Node]++
	}
	total := 0
	for i, nr := range r.Nodes {
		total += nr.Jobs
		if routed[i] != nr.Jobs || nr.Jobs != len(nr.Result.Jobs) {
			flag("sample-path", "%snode %s: %d routes, %d jobs, %d job metrics", prefix, nr.Name, routed[i], nr.Jobs, len(nr.Result.Jobs))
		}
		checkSamplePath(nr.Result, nodes[i].Platform, prefix+"node "+nr.Name+": ", flag)
	}
	if total != r.Jobs {
		flag("sample-path", "%snode job counts sum to %d, fleet admitted %d", prefix, total, r.Jobs)
	}
}

// fleetDigest canonically serializes a fleet result: the routing log
// plus every node's full single-node digest. Two runs digest equal iff
// they are bit-identical.
func fleetDigest(r *fleet.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "routing=%s jobs=%d trunc=%d makespan=%s ptime=%s",
		r.Routing, r.Jobs, r.Truncated, hexFloat(r.Makespan), hexFloat(r.ProcessorTime))
	for _, rt := range r.Routes {
		fmt.Fprintf(&b, "\nroute %d t=%s n=%d", rt.Job, hexFloat(rt.Time), rt.Node)
	}
	for i := range r.Nodes {
		fmt.Fprintf(&b, "\nnode %s jobs=%d\n%s", r.Nodes[i].Name, r.Nodes[i].Jobs, onlineDigest(r.Nodes[i].Result))
	}
	return b.String()
}
