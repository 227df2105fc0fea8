package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	repro "repro"
	"repro/internal/des"
	"repro/internal/model"
	"repro/internal/sched"
)

// ScenarioWire is the JSON wire form of one portfolio scenario, shared
// by the service endpoints and cosched's -batch mode: platform and
// seed are optional (the caller's defaults fill them in), heuristics
// default to the full extended set.
type ScenarioWire struct {
	Platform   *des.PlatformSpec `json:"platform,omitempty"`
	Apps       []des.AppSpec     `json:"apps"`
	Heuristics []string          `json:"heuristics,omitempty"`
	Seed       *uint64           `json:"seed,omitempty"`
	// Selector opts a /v1/schedule request into predicted-winner-first
	// selection: the service serves the heuristic its trained ledger
	// predicts and races the full portfolio only on doubt. On a service
	// without a ledger the flag is honored but every request falls back
	// to the full race (the safe default). Ignored by the other
	// endpoints, whose point is the full report.
	Selector bool `json:"selector,omitempty"`
}

// Defaults supplies the values a ScenarioWire may omit.
type Defaults struct {
	Platform model.Platform
	Seed     uint64
}

// Scenario resolves the wire form against the defaults. Heuristic
// names are parsed here so a typo is a decode-time error, not a
// silently empty race.
func (sj ScenarioWire) Scenario(d Defaults) (repro.PortfolioScenario, error) {
	sc := repro.PortfolioScenario{Platform: d.Platform, Seed: d.Seed}
	if sj.Platform != nil {
		sc.Platform = sj.Platform.Platform()
	}
	if sj.Seed != nil {
		sc.Seed = *sj.Seed
	}
	for _, a := range sj.Apps {
		sc.Apps = append(sc.Apps, a.Application())
	}
	for _, name := range sj.Heuristics {
		h, err := sched.ParseHeuristic(name)
		if err != nil {
			return sc, err
		}
		sc.Heuristics = append(sc.Heuristics, h)
	}
	return sc, nil
}

// DecodeScenarios parses a scenario stream — a JSON array of
// ScenarioWire objects, or a bare NDJSON/whitespace-separated sequence
// of them — invoking emit for each scenario as it is decoded; emit
// returning false stops the stream early (consumer gone). name labels
// errors ("request body", a file path). Decoding is incremental, so
// arbitrarily long streams are consumed in bounded memory.
func DecodeScenarios(r io.Reader, name string, d Defaults, emit func(repro.PortfolioScenario) bool) error {
	br := bufio.NewReader(r)
	array := false
	for {
		b, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("parsing %s: %w", name, err)
		}
		if b == ' ' || b == '\t' || b == '\n' || b == '\r' {
			continue
		}
		array = b == '['
		if err := br.UnreadByte(); err != nil {
			return err
		}
		break
	}
	dec := json.NewDecoder(br)
	if array {
		if _, err := dec.Token(); err != nil { // consume '['
			return fmt.Errorf("parsing %s: %w", name, err)
		}
	}
	for n := 0; ; n++ {
		if array && !dec.More() {
			if _, err := dec.Token(); err != nil { // consume ']'
				return fmt.Errorf("parsing %s: %w", name, err)
			}
			if err := des.ExpectEnd(dec); err != nil {
				return fmt.Errorf("parsing %s after the scenario array: %w", name, err)
			}
			return nil
		}
		var sj ScenarioWire
		if err := dec.Decode(&sj); err != nil {
			if !array && err == io.EOF {
				return nil
			}
			return fmt.Errorf("parsing %s scenario %d: %w", name, n, err)
		}
		sc, err := sj.Scenario(d)
		if err != nil {
			return fmt.Errorf("%s scenario %d: %w", name, n, err)
		}
		if !emit(sc) {
			return nil
		}
	}
}

// ResultWire is one heuristic's outcome on the wire. ReportOf never
// sets FromCache: service responses must be byte-identical for
// identical (tenant, body) pairs whether or not the memo cache had the
// entry. cosched -batch fills it in to show cache provenance.
type ResultWire struct {
	Heuristic string  `json:"heuristic"`
	Makespan  float64 `json:"makespan,omitempty"`
	FromCache bool    `json:"fromCache,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// ReportWire is a full portfolio report on the wire.
type ReportWire struct {
	Best     string       `json:"best,omitempty"`
	Makespan float64      `json:"makespan,omitempty"`
	Results  []ResultWire `json:"results,omitempty"`
	Error    string       `json:"error,omitempty"`
}

// ReportOf converts an engine report to its wire form.
func ReportOf(rep *repro.PortfolioReport) ReportWire {
	if rep.Err != nil {
		return ReportWire{Error: rep.Err.Error()}
	}
	rj := ReportWire{}
	if best := rep.BestResult(); best != nil {
		rj.Best = best.Heuristic.String()
		rj.Makespan = best.Schedule.Makespan
	}
	for _, r := range rep.Results {
		res := ResultWire{Heuristic: r.Heuristic.String()}
		if r.Err != nil {
			res.Error = r.Err.Error()
		} else {
			res.Makespan = r.Schedule.Makespan
		}
		rj.Results = append(rj.Results, res)
	}
	return rj
}

// AssignmentWire is one application's resources in a schedule response.
type AssignmentWire struct {
	Name       string  `json:"name"`
	Processors float64 `json:"processors"`
	CacheShare float64 `json:"cacheShare"`
	Finish     float64 `json:"finish"`
}

// SelectorWire reports how a selector-opted /v1/schedule request was
// served: by the ledger's prediction, or by a full race and why.
type SelectorWire struct {
	Predicted bool   `json:"predicted"`
	Fallback  string `json:"fallback,omitempty"` // "no-evidence" | "unconfident" | "infeasible"
	Races     int    `json:"races,omitempty"`    // prediction evidence: races entered ...
	Wins      int    `json:"wins,omitempty"`     // ... and won by the served heuristic
}

// ScheduleWire is the /v1/schedule response: the winning heuristic and
// its complete co-schedule. Selector is present only on requests that
// opted into learned selection.
type ScheduleWire struct {
	Heuristic   string           `json:"heuristic"`
	Makespan    float64          `json:"makespan"`
	Assignments []AssignmentWire `json:"assignments"`
	Selector    *SelectorWire    `json:"selector,omitempty"`
}

// ScheduleOf renders the winning result of a race against the scenario
// it solved.
func ScheduleOf(sc repro.PortfolioScenario, best *repro.PortfolioResult) ScheduleWire {
	s := best.Schedule
	out := ScheduleWire{Heuristic: best.Heuristic.String(), Makespan: s.Makespan}
	ft := s.FinishTimes(sc.Platform, sc.Apps)
	for i, a := range sc.Apps {
		out.Assignments = append(out.Assignments, AssignmentWire{
			Name:       a.Name,
			Processors: s.Assignments[i].Processors,
			CacheShare: s.Assignments[i].CacheShare,
			Finish:     ft[i],
		})
	}
	return out
}

// SummaryWire is the /v1/simulate response: the same summary dessim
// prints as its final NDJSON line.
type SummaryWire struct {
	Policy        string          `json:"policy"`
	Arrivals      string          `json:"arrivals"`
	Jobs          int             `json:"jobs"`
	Truncated     int             `json:"truncated,omitempty"`
	Makespan      float64         `json:"makespan"`
	Utilization   float64         `json:"utilization"`
	CacheOccupied float64         `json:"meanCacheOccupancy"`
	MeanQueue     float64         `json:"meanQueueLength"`
	MaxQueue      int             `json:"maxQueueLength"`
	Repartitions  int             `json:"repartitions"`
	MeanWait      float64         `json:"meanWait"`
	MaxWait       float64         `json:"maxWait"`
	MeanResponse  float64         `json:"meanResponse"`
	MaxResponse   float64         `json:"maxResponse"`
	MeanStretch   float64         `json:"meanStretch"`
	MaxStretch    float64         `json:"maxStretch"`
	Replan        des.ReplanStats `json:"replan"`
}

// SummaryOf condenses a finished online run.
func SummaryOf(sc des.Scenario, res *des.Result) SummaryWire {
	return SummaryWire{
		Policy:        sc.Policy.Name(),
		Arrivals:      sc.Arrivals.Name(),
		Jobs:          len(res.Jobs),
		Truncated:     res.Truncated,
		Replan:        res.Replan,
		Makespan:      res.Makespan,
		Utilization:   res.Utilization(sc.Platform),
		CacheOccupied: res.MeanCacheOccupancy(),
		MeanQueue:     res.MeanQueueLength(),
		MaxQueue:      res.MaxQueue,
		Repartitions:  res.Repartitions,
		MeanWait:      res.Wait.Mean,
		MaxWait:       res.Wait.Max,
		MeanResponse:  res.Response.Mean,
		MaxResponse:   res.Response.Max,
		MeanStretch:   res.Stretch.Mean,
		MaxStretch:    res.Stretch.Max,
	}
}

// FleetNodeWire is one node's outcome in a fleet response.
type FleetNodeWire struct {
	Name         string  `json:"name"`
	Jobs         int     `json:"jobs"`
	Makespan     float64 `json:"makespan"`
	Utilization  float64 `json:"utilization"`
	Repartitions int     `json:"repartitions"`
}

// FleetSummaryWire is the /v1/simulate-fleet response: the fleet-wide
// aggregate plus one entry per node — the same summary dessim -fleet
// prints as its final NDJSON lines.
type FleetSummaryWire struct {
	Routing      string          `json:"routing"`
	Arrivals     string          `json:"arrivals"`
	Nodes        []FleetNodeWire `json:"nodes"`
	Jobs         int             `json:"jobs"`
	Truncated    int             `json:"truncated,omitempty"`
	Makespan     float64         `json:"makespan"`
	Utilization  float64         `json:"utilization"`
	MeanWait     float64         `json:"meanWait"`
	MaxWait      float64         `json:"maxWait"`
	MeanResponse float64         `json:"meanResponse"`
	MaxResponse  float64         `json:"maxResponse"`
	MeanStretch  float64         `json:"meanStretch"`
	MaxStretch   float64         `json:"maxStretch"`
	Replan       des.ReplanStats `json:"replan"`
}

// FleetSummaryOf condenses a finished fleet run.
func FleetSummaryOf(sc repro.FleetScenario, res *repro.FleetResult) FleetSummaryWire {
	out := FleetSummaryWire{
		Routing:   res.Routing,
		Arrivals:  sc.Arrivals.Name(),
		Jobs:      res.Jobs,
		Truncated: res.Truncated,
		Makespan:  res.Makespan,
		MeanWait:  res.Wait.Mean, MaxWait: res.Wait.Max,
		MeanResponse: res.Response.Mean, MaxResponse: res.Response.Max,
		MeanStretch: res.Stretch.Mean, MaxStretch: res.Stretch.Max,
	}
	totalProcs := 0.0
	for i := range res.Nodes {
		totalProcs += sc.Nodes[i].Platform.Processors
		out.Replan.Add(res.Nodes[i].Result.Replan)
		out.Nodes = append(out.Nodes, FleetNodeWire{
			Name:         res.Nodes[i].Name,
			Jobs:         res.Nodes[i].Jobs,
			Makespan:     res.Nodes[i].Result.Makespan,
			Utilization:  res.Nodes[i].Result.Utilization(sc.Nodes[i].Platform),
			Repartitions: res.Nodes[i].Result.Repartitions,
		})
	}
	out.Utilization = res.Utilization(totalProcs)
	return out
}

// TenantSeed derives the effective base seed for one tenant: the
// service seed XOR an FNV-1a hash of the tenant name. Deterministic and
// stateless, so identical (tenant, body) requests produce bit-identical
// responses across replicas; an empty tenant keeps the service seed.
func TenantSeed(base uint64, tenant string) uint64 {
	if tenant == "" {
		return base
	}
	h := fnv.New64a()
	h.Write([]byte(tenant))
	return base ^ h.Sum64()
}
