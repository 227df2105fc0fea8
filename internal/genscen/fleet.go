package genscen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/solve"
)

// fleetSalt separates the fleet families' RNG streams from the
// single-node families sharing a seed.
const fleetSalt = 0xF1EE7F1EE7F1EE77

// FleetFamily names one fleet-scenario generator. The fleet families
// are deliberately a separate enum from Family: they parameterize a
// different harness (routing determinism, fleet-vs-single-node
// invariants) with its own golden corpus, and folding them into
// Families would silently change every default single-node sweep.
type FleetFamily int

const (
	// FleetUniform is the homogeneous baseline: identical nodes, an
	// Amdahl-mix job stream spread evenly over the horizon. Routing
	// differences here come purely from load signals.
	FleetUniform FleetFamily = iota
	// FleetHetero draws every node's platform independently (different
	// processor counts, cache sizes, latency constants), so a router
	// that ignores node capacity pays for it.
	FleetHetero
	// FleetAffinity is the cache-affinity regime: tight node caches and
	// a cache-bound job stream stamped from a few templates in runs, so
	// keeping a template's working set on one node is materially better
	// than spraying it.
	FleetAffinity
	// FleetBurst clusters arrivals into bursts separated by idle gaps,
	// stressing queue-depth signals (join-shortest-queue vs backlog)
	// and the FIFO admission path on every node.
	FleetBurst
)

// FleetFamilies lists every fleet family in presentation order.
var FleetFamilies = []FleetFamily{FleetUniform, FleetHetero, FleetAffinity, FleetBurst}

// String implements fmt.Stringer with the harness's kebab-case names.
func (f FleetFamily) String() string {
	switch f {
	case FleetUniform:
		return "fleet-uniform"
	case FleetHetero:
		return "fleet-hetero"
	case FleetAffinity:
		return "fleet-affinity"
	case FleetBurst:
		return "fleet-burst"
	default:
		return fmt.Sprintf("FleetFamily(%d)", int(f))
	}
}

// ParseFleetFamily resolves a fleet family name as produced by String.
func ParseFleetFamily(name string) (FleetFamily, error) {
	for _, f := range FleetFamilies {
		if f.String() == name {
			return f, nil
		}
	}
	return 0, fmt.Errorf("genscen: unknown fleet family %q", name)
}

// ParseFleetFamilies resolves a comma-separated fleet family list;
// empty input means every fleet family.
func ParseFleetFamilies(spec string) ([]FleetFamily, error) {
	if strings.TrimSpace(spec) == "" {
		return append([]FleetFamily(nil), FleetFamilies...), nil
	}
	var out []FleetFamily
	for _, name := range strings.Split(spec, ",") {
		f, err := ParseFleetFamily(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// FleetInstance is one fully specified fleet problem: the node list
// plus the job stream as (arrival-offset, application) pairs. Offsets
// are fractions of the simulation horizon in [0, 1), non-decreasing;
// FleetSpec scales them by a caller-chosen span.
type FleetInstance struct {
	Family  FleetFamily
	Seed    uint64
	Nodes   []fleet.Node
	Apps    []model.Application
	Offsets []float64
}

// GenerateFleet produces the (family, seed) fleet instance — a pure
// function of its arguments, like Generate.
func GenerateFleet(f FleetFamily, seed uint64) (*FleetInstance, error) {
	rng := solve.NewRNG(solve.Substream(seed, uint64(f)+1) ^ fleetSalt)
	in := &FleetInstance{Family: f, Seed: seed}
	nNodes := 2 + rng.Intn(3) // 2–4 nodes
	jobs := 3*nNodes + rng.Intn(2*nNodes+1)
	var tpl []model.Application
	switch f {
	case FleetUniform:
		pl := stdPlatform(rng)
		for i := 0; i < nNodes; i++ {
			in.Nodes = append(in.Nodes, fleet.Node{Platform: pl, MaxResident: 3})
		}
		tpl = amdahlMixApps(rng, 3)
		in.Apps, in.Offsets = cycleStream(rng, tpl, jobs)
	case FleetHetero:
		for i := 0; i < nNodes; i++ {
			in.Nodes = append(in.Nodes, fleet.Node{Platform: stdPlatform(rng), MaxResident: 3})
		}
		tpl = amdahlMixApps(rng, 3)
		in.Apps, in.Offsets = cycleStream(rng, tpl, jobs)
	case FleetAffinity:
		for i := 0; i < nNodes; i++ {
			pl := stdPlatform(rng)
			pl.CacheSize = rng.LogUniform(1e6, 4e7) // tight cache
			in.Nodes = append(in.Nodes, fleet.Node{Platform: pl, MaxResident: 3})
		}
		minCache := in.Nodes[0].Platform.CacheSize
		for _, n := range in.Nodes[1:] {
			if n.Platform.CacheSize < minCache {
				minCache = n.Platform.CacheSize
			}
		}
		tpl = cacheBoundApps(rng, 2+rng.Intn(2), minCache)
		in.Apps, in.Offsets = runStream(rng, tpl, jobs)
	case FleetBurst:
		pl := stdPlatform(rng)
		for i := 0; i < nNodes; i++ {
			in.Nodes = append(in.Nodes, fleet.Node{Platform: pl, MaxResident: 2})
		}
		tpl = amdahlMixApps(rng, 3)
		in.Apps, in.Offsets = cycleStream(rng, tpl, jobs)
		burstOffsets(rng, in.Offsets)
	default:
		return nil, fmt.Errorf("genscen: unknown fleet family %v", f)
	}
	for i, n := range in.Nodes {
		if err := model.ValidateAll(n.Platform, in.Apps); err != nil {
			return nil, fmt.Errorf("genscen: %s seed %d node %d invalid: %w", f, seed, i, err)
		}
	}
	return in, nil
}

// cycleStream stamps jobs from the templates in cyclic order with
// sorted uniform arrival offsets.
func cycleStream(rng *solve.RNG, tpl []model.Application, jobs int) ([]model.Application, []float64) {
	apps := make([]model.Application, jobs)
	offs := make([]float64, jobs)
	for i := range apps {
		a := tpl[i%len(tpl)]
		a.Name = fmt.Sprintf("%s#%d", a.Name, i)
		apps[i] = a
		offs[i] = rng.Float64()
	}
	sort.Float64s(offs)
	return apps, offs
}

// runStream stamps jobs in template runs (a few consecutive jobs per
// template before switching), so footprint affinity has structure to
// exploit.
func runStream(rng *solve.RNG, tpl []model.Application, jobs int) ([]model.Application, []float64) {
	apps := make([]model.Application, jobs)
	offs := make([]float64, jobs)
	ti := 0
	for i := 0; i < jobs; {
		for j, run := 0, 1+rng.Intn(3); j < run && i < jobs; j++ {
			a := tpl[ti%len(tpl)]
			a.Name = fmt.Sprintf("%s#%d", a.Name, i)
			apps[i] = a
			offs[i] = rng.Float64()
			i++
		}
		ti++
	}
	sort.Float64s(offs)
	return apps, offs
}

// burstOffsets re-draws the offsets as clustered bursts: a few centers
// over the horizon, each job jittered tightly around one of them.
func burstOffsets(rng *solve.RNG, offs []float64) {
	centers := 2 + rng.Intn(2)
	for i := range offs {
		c := float64(rng.Intn(centers))
		offs[i] = (c + rng.UniformRange(0, 0.2)) / float64(centers)
	}
	sort.Float64s(offs)
}

// FleetSpec projects the instance into the fleet wire format: replay
// arrivals at span·offset with explicit per-job applications, so a
// failing (family, seed) reproduces verbatim under cmd/dessim -fleet.
// span should be on the order of a single node's makespan for the job
// set, so arrivals overlap without serializing.
func (in *FleetInstance) FleetSpec(routing string, span float64) (*fleet.Spec, error) {
	if !(span >= 0) {
		return nil, fmt.Errorf("genscen: fleet span must be >= 0, got %v", span)
	}
	replay := make([]des.ReplaySpec, len(in.Apps))
	for i, a := range in.Apps {
		app := des.AppSpec{
			Name: a.Name, Work: a.Work, Seq: a.SeqFraction, Freq: a.AccessFreq,
			MissRate: a.RefMissRate, RefCache: a.RefCacheSize, Footprint: a.Footprint,
		}
		replay[i] = des.ReplaySpec{Time: span * in.Offsets[i], App: &app}
	}
	nodes := make([]fleet.NodeSpec, len(in.Nodes))
	for i, n := range in.Nodes {
		pl := n.Platform
		nodes[i] = fleet.NodeSpec{
			Name: n.Name,
			Platform: &des.PlatformSpec{
				Processors: pl.Processors, CacheSize: pl.CacheSize,
				LatencyS: pl.LatencyS, LatencyL: pl.LatencyL, Alpha: pl.Alpha,
			},
			Policy:      n.Policy,
			MaxResident: n.MaxResident,
		}
	}
	sp := &fleet.Spec{
		Nodes:    nodes,
		Routing:  routing,
		Arrivals: des.ArrivalSpec{Process: "replay", Replay: replay},
		Seed:     in.Seed,
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}
