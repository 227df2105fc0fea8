package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/des"
	"repro/internal/model"
	"repro/internal/portfolio"
)

// maxSpecNodes bounds fleet sizes accepted from untrusted input (the
// HTTP and CLI decode surfaces); programmatic users construct
// Scenarios directly.
const maxSpecNodes = 1 << 10

// NodeSpec is one node of the fleet wire format.
type NodeSpec struct {
	Name string `json:"name,omitempty"`
	// Platform defaults to the paper's TaihuLight node when omitted.
	Platform *des.PlatformSpec `json:"platform,omitempty"`
	// Policy is a des.ParsePolicy specification; empty means
	// DominantMinRatio repartitioning.
	Policy string `json:"policy,omitempty"`
	// MaxResident > 0 bounds node sharing; excess jobs queue FIFO.
	MaxResident int `json:"maxResident,omitempty"`
}

// Spec is the JSON fleet-scenario format of cmd/dessim -fleet and the
// /v1/simulate-fleet endpoint: the node list, the routing policy, the
// template applications and the fleet-wide arrival stream.
type Spec struct {
	Nodes []NodeSpec `json:"nodes"`
	// Routing selects the routing policy (see Routings); empty means
	// least-loaded.
	Routing string `json:"routing,omitempty"`
	// Apps are the template profiles jobs are stamped from (cycled in
	// arrival order). Empty means the paper's NPB Table 2 set.
	Apps []des.AppSpec `json:"apps,omitempty"`
	// Arrivals configures the fleet-wide arrival process.
	Arrivals des.ArrivalSpec `json:"arrivals"`
	// Duration > 0 cuts the arrival stream off at that virtual time.
	Duration float64 `json:"duration,omitempty"`
	// Seed drives every random draw of the run.
	Seed uint64 `json:"seed,omitempty"`
}

// DecodeSpec parses and validates a fleet scenario. Unknown fields are
// rejected so typos fail loudly rather than silently falling back to
// defaults, and so is anything after the document (see des.DecodeOne).
func DecodeSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Spec
	if err := des.DecodeOne(dec, &sp); err != nil {
		return nil, fmt.Errorf("fleet: parsing scenario: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Validate checks the spec for structural problems: an empty fleet, an
// invalid node platform or policy, an unknown routing policy, a
// malformed arrival spec.
func (sp *Spec) Validate() error {
	if len(sp.Nodes) == 0 {
		return fmt.Errorf("fleet: scenario needs at least one node")
	}
	if len(sp.Nodes) > maxSpecNodes {
		return fmt.Errorf("fleet: more than %d nodes", maxSpecNodes)
	}
	for i, n := range sp.Nodes {
		if n.Platform != nil {
			if err := n.Platform.Platform().Validate(); err != nil {
				return fmt.Errorf("fleet: node %d: %w", i, err)
			}
		}
		if n.MaxResident < 0 {
			return fmt.Errorf("fleet: node %d: maxResident must be >= 0, got %d", i, n.MaxResident)
		}
		if err := des.ValidatePolicy(n.Policy); err != nil {
			return fmt.Errorf("fleet: node %d: %w", i, err)
		}
	}
	if _, err := ParseRouter(sp.Routing, 0); err != nil {
		return err
	}
	for i, a := range sp.Apps {
		if err := a.Application().Validate(); err != nil {
			return fmt.Errorf("fleet: template app %d: %w", i, err)
		}
	}
	if math.IsNaN(sp.Duration) || math.IsInf(sp.Duration, 0) || sp.Duration < 0 {
		return fmt.Errorf("fleet: duration must be finite and >= 0, got %v", sp.Duration)
	}
	return sp.Arrivals.Validate()
}

// Build turns the validated spec into a runnable Scenario. workers is
// ignored: node policies race on the simulating goroutine.
func (sp *Spec) Build(workers int) (Scenario, error) {
	if err := sp.Validate(); err != nil {
		return Scenario{}, err
	}
	nodes := make([]Node, len(sp.Nodes))
	for i, n := range sp.Nodes {
		pl := model.TaihuLight()
		if n.Platform != nil {
			pl = n.Platform.Platform()
		}
		nodes[i] = Node{Name: n.Name, Platform: pl, Policy: n.Policy, MaxResident: n.MaxResident}
	}
	proc, err := sp.Arrivals.Stream(sp.Apps, sp.Seed)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Nodes:    nodes,
		Routing:  sp.Routing,
		Arrivals: proc,
		Duration: sp.Duration,
		Seed:     sp.Seed,
	}, nil
}

// BuildWith is Build; engine and workers are ignored, since no node
// policy holds a portfolio engine.
func (sp *Spec) BuildWith(engine *portfolio.Engine, workers int) (Scenario, error) {
	return sp.Build(workers)
}
