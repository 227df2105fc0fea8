package des

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Spec is the JSON scenario format of cmd/dessim: platform, template
// applications, arrival-process configuration, policy and run controls.
// Decoding validates everything up front — non-finite or negative
// values are rejected with a field-level error instead of silently
// propagating NaN into the heuristics.
type Spec struct {
	Platform *PlatformSpec `json:"platform,omitempty"`
	// Apps are the template profiles jobs are stamped from (cycled in
	// arrival order). Empty means the paper's NPB Table 2 set.
	Apps     []AppSpec   `json:"apps,omitempty"`
	Arrivals ArrivalSpec `json:"arrivals"`
	// Policy is a ParsePolicy specification; empty means
	// DominantMinRatio repartitioning.
	Policy string `json:"policy,omitempty"`
	// Duration > 0 cuts the arrival stream off at that virtual time.
	Duration float64 `json:"duration,omitempty"`
	// MaxResident > 0 bounds node sharing; excess jobs queue FIFO.
	MaxResident int `json:"maxResident,omitempty"`
	// Seed drives every random draw of the run.
	Seed uint64 `json:"seed,omitempty"`
}

// PlatformSpec mirrors model.Platform in the scenario wire format.
type PlatformSpec struct {
	Processors float64 `json:"processors"`
	CacheSize  float64 `json:"cacheSize"`
	LatencyS   float64 `json:"ls"`
	LatencyL   float64 `json:"ll"`
	Alpha      float64 `json:"alpha"`
}

// Platform converts the wire form to the model type.
func (p PlatformSpec) Platform() model.Platform {
	return model.Platform{Processors: p.Processors, CacheSize: p.CacheSize, LatencyS: p.LatencyS, LatencyL: p.LatencyL, Alpha: p.Alpha}
}

// AppSpec mirrors model.Application in the scenario wire format (the
// same field names as cmd/cosched's application JSON).
type AppSpec struct {
	Name      string  `json:"name"`
	Work      float64 `json:"work"`
	Seq       float64 `json:"seq"`
	Freq      float64 `json:"freq"`
	MissRate  float64 `json:"missRate"`
	RefCache  float64 `json:"refCache"`
	Footprint float64 `json:"footprint"`
}

// Application converts the wire form to the model type.
func (a AppSpec) Application() model.Application {
	return model.Application{
		Name: a.Name, Work: a.Work, SeqFraction: a.Seq, AccessFreq: a.Freq,
		RefMissRate: a.MissRate, RefCacheSize: a.RefCache, Footprint: a.Footprint,
	}
}

// ArrivalSpec configures one arrival process. Process selects the kind;
// the other fields parameterize it (unused ones are ignored).
type ArrivalSpec struct {
	// Process: "poisson", "ipoisson", "gamma", "batch", "replay" or
	// "trace".
	Process string `json:"process"`
	// N is the number of arrivals (all processes except replay).
	N int `json:"n,omitempty"`
	// Rate: poisson arrivals per unit time.
	Rate float64 `json:"rate,omitempty"`
	// BaseRate/Amplitude/Period: ipoisson sinusoidal intensity
	// base + amp·sin(2πt/period), 0 ≤ amp ≤ base.
	BaseRate  float64 `json:"baseRate,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
	Period    float64 `json:"period,omitempty"`
	// Shape/Scale/Burst: gamma bursts of Burst jobs, inter-burst gaps
	// ~ Gamma(shape, scale).
	Shape float64 `json:"shape,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Burst int     `json:"burst,omitempty"`
	// Interval/Size: fixed batches of Size jobs every Interval.
	Interval float64 `json:"interval,omitempty"`
	Size     int     `json:"size,omitempty"`
	// Replay: explicit arrivals, each with a time and an optional app
	// (missing apps come from the template factory).
	Replay []ReplaySpec `json:"replay,omitempty"`
	// Trace/MeanGap: arrival gaps derived from an internal/trace
	// generator ("zipf", "uniform" or "sequential") over TraceBytes of
	// footprint, normalized to a mean inter-arrival of MeanGap.
	Trace      string  `json:"trace,omitempty"`
	MeanGap    float64 `json:"meanGap,omitempty"`
	TraceBytes uint64  `json:"traceBytes,omitempty"`
}

// ReplaySpec is one explicit arrival of a replay spec.
type ReplaySpec struct {
	Time float64  `json:"time"`
	App  *AppSpec `json:"app,omitempty"`
}

// maxSpecArrivals bounds scenario sizes accepted from untrusted input
// (the fuzz surface); programmatic users construct processes directly.
const maxSpecArrivals = 1 << 20

// DecodeSpec parses and validates a scenario. It rejects trailing data
// and unknown fields, so typos fail loudly instead of falling back to
// defaults.
func DecodeSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Spec
	if err := DecodeOne(dec, &sp); err != nil {
		return nil, fmt.Errorf("des: parsing scenario: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// DecodeOne decodes the one JSON document dec holds into v; see
// ExpectEnd.
func DecodeOne(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	return ExpectEnd(dec)
}

// ExpectEnd fails unless only whitespace is left in dec: a second
// document or trailing bytes reject the input whole.
func ExpectEnd(dec *json.Decoder) error {
	switch tok, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("trailing data: %w", err)
	default:
		return fmt.Errorf("trailing data (%v)", tok)
	}
}

// Validate checks the spec for structural problems: non-finite or
// negative numbers anywhere a quantity must be positive, out-of-range
// counts, unknown process names.
func (sp *Spec) Validate() error {
	if sp.Platform != nil {
		if err := sp.platform().Validate(); err != nil {
			return err
		}
	}
	for i, a := range sp.Apps {
		if err := a.Application().Validate(); err != nil {
			return fmt.Errorf("des: template app %d: %w", i, err)
		}
	}
	if math.IsNaN(sp.Duration) || math.IsInf(sp.Duration, 0) || sp.Duration < 0 {
		return fmt.Errorf("des: duration must be finite and >= 0, got %v", sp.Duration)
	}
	if sp.MaxResident < 0 {
		return fmt.Errorf("des: maxResident must be >= 0, got %d", sp.MaxResident)
	}
	return sp.Arrivals.Validate()
}

func (sp *Spec) platform() model.Platform {
	if sp.Platform == nil {
		return model.TaihuLight()
	}
	return sp.Platform.Platform()
}

// Validate checks the arrival spec alone — the same field-level checks
// Spec.Validate applies — for scenario formats that embed an
// ArrivalSpec without the rest of the single-node spec.
func (as *ArrivalSpec) Validate() error {
	checkN := func() error {
		if as.N <= 0 || as.N > maxSpecArrivals {
			return fmt.Errorf("des: arrivals.n must be in [1, %d], got %d", maxSpecArrivals, as.N)
		}
		return nil
	}
	switch as.Process {
	case "poisson":
		if err := checkRate("arrivals.rate", as.Rate); err != nil {
			return err
		}
		return checkN()
	case "ipoisson":
		if _, err := SinusoidRate(as.BaseRate, as.Amplitude, as.Period); err != nil {
			return err
		}
		return checkN()
	case "gamma":
		if err := checkRate("arrivals.shape", as.Shape); err != nil {
			return err
		}
		if err := checkRate("arrivals.scale", as.Scale); err != nil {
			return err
		}
		if as.Burst <= 0 || as.Burst > maxSpecArrivals {
			return fmt.Errorf("des: arrivals.burst must be in [1, %d], got %d", maxSpecArrivals, as.Burst)
		}
		return checkN()
	case "batch":
		if as.Interval < 0 || math.IsNaN(as.Interval) || math.IsInf(as.Interval, 0) {
			return fmt.Errorf("des: arrivals.interval must be finite and >= 0, got %v", as.Interval)
		}
		if as.Size <= 0 || as.Size > maxSpecArrivals {
			return fmt.Errorf("des: arrivals.size must be in [1, %d], got %d", maxSpecArrivals, as.Size)
		}
		return checkN()
	case "replay":
		if len(as.Replay) == 0 {
			return fmt.Errorf("des: replay arrivals need at least one entry")
		}
		if len(as.Replay) > maxSpecArrivals {
			return fmt.Errorf("des: replay longer than %d arrivals", maxSpecArrivals)
		}
		prev := 0.0
		for i, r := range as.Replay {
			if math.IsNaN(r.Time) || math.IsInf(r.Time, 0) || r.Time < 0 {
				return fmt.Errorf("des: replay arrival %d has invalid time %v", i, r.Time)
			}
			if r.Time < prev {
				return fmt.Errorf("des: replay arrivals out of order at %d: t=%v after t=%v", i, r.Time, prev)
			}
			prev = r.Time
			if r.App != nil {
				if err := r.App.Application().Validate(); err != nil {
					return fmt.Errorf("des: replay arrival %d: %w", i, err)
				}
			}
		}
		return nil
	case "trace":
		switch as.Trace {
		case "zipf", "uniform", "sequential":
		default:
			return fmt.Errorf("des: arrivals.trace must be zipf, uniform or sequential, got %q", as.Trace)
		}
		if err := checkRate("arrivals.meanGap", as.MeanGap); err != nil {
			return err
		}
		// Bounded tightly: the Zipf generator precomputes a CDF with one
		// entry per cache line, so a large footprint means seconds of
		// setup — hostile input for a decode-then-build surface.
		if as.TraceBytes > 1<<24 {
			return fmt.Errorf("des: arrivals.traceBytes %d exceeds 16 MiB", as.TraceBytes)
		}
		return checkN()
	case "":
		return fmt.Errorf("des: arrivals.process is required (poisson, ipoisson, gamma, batch, replay or trace)")
	default:
		return fmt.Errorf("des: unknown arrival process %q", as.Process)
	}
}

// Build turns the validated spec into a runnable Scenario: constructs
// the platform, the arrival stream (see ArrivalSpec.Stream) and the
// policy.
func (sp *Spec) Build() (Scenario, error) {
	if err := sp.Validate(); err != nil {
		return Scenario{}, err
	}
	proc, err := sp.Arrivals.Stream(sp.Apps, sp.Seed)
	if err != nil {
		return Scenario{}, err
	}
	spec := sp.Policy
	if spec == "" {
		spec = "DominantMinRatio"
	}
	pol, err := ParsePolicy(spec, sp.Seed)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Platform:    sp.platform(),
		Arrivals:    proc,
		Policy:      pol,
		Duration:    sp.Duration,
		MaxResident: sp.MaxResident,
	}, nil
}

// Stream builds the arrival process of a scenario spec, single-node or
// fleet: jobs are stamped from the template apps in arrival order
// (CycleApps; the paper's NPB set when apps is empty), and the
// process's randomness is seeded from seed. The spec is expected to
// have passed Validate.
func (as *ArrivalSpec) Stream(apps []AppSpec, seed uint64) (ArrivalProcess, error) {
	tpl := make([]model.Application, len(apps))
	for i, a := range apps {
		tpl[i] = a.Application()
	}
	if len(tpl) == 0 {
		tpl = workload.NPB()
	}
	factory, err := CycleApps(tpl)
	if err != nil {
		return nil, err
	}
	rng := solve.NewRNG(seed)
	switch as.Process {
	case "poisson":
		return NewPoisson(as.Rate, as.N, factory, rng)
	case "ipoisson":
		rate, err := SinusoidRate(as.BaseRate, as.Amplitude, as.Period)
		if err != nil {
			return nil, err
		}
		return NewInhomogeneousPoisson(rate, as.BaseRate+as.Amplitude, as.N, factory, rng)
	case "gamma":
		return NewGammaBursts(as.Shape, as.Scale, as.Burst, as.N, factory, rng)
	case "batch":
		return NewBatch(as.Interval, as.Size, as.N, factory)
	case "replay":
		arrivals := make([]Arrival, len(as.Replay))
		for i, r := range as.Replay {
			app := factory(i)
			if r.App != nil {
				app = r.App.Application()
			}
			arrivals[i] = Arrival{Time: r.Time, App: app}
		}
		return NewReplay(arrivals)
	case "trace":
		gen, err := as.buildTrace(rng)
		if err != nil {
			return nil, err
		}
		return ReplayFromTrace(gen, as.N, as.MeanGap, factory)
	default:
		return nil, fmt.Errorf("des: unknown arrival process %q", as.Process)
	}
}

// buildTrace constructs the memory-access generator backing a
// trace-driven arrival stream. The footprint defaults to 1 MB over
// 64-byte lines — enough blocks for the locality structure to matter,
// small enough to build instantly.
func (as *ArrivalSpec) buildTrace(rng *solve.RNG) (trace.Generator, error) {
	size := as.TraceBytes
	if size == 0 {
		size = 1 << 20
	}
	const line = 64
	if size < line {
		return nil, fmt.Errorf("des: arrivals.traceBytes must be >= %d, got %d", line, size)
	}
	switch as.Trace {
	case "zipf":
		return trace.NewZipf(size, line, 1.2, rng)
	case "uniform":
		return trace.NewUniform(size, line, rng)
	case "sequential":
		return trace.NewSequential(size, line)
	default:
		return nil, fmt.Errorf("des: unknown trace kind %q", as.Trace)
	}
}

// ParseArrivalSpec parses the compact command-line form of an arrival
// spec: "process:key=value,key=value", e.g. "poisson:rate=0.5,n=64" or
// "ipoisson:baseRate=1,amplitude=0.8,period=100,n=200". Keys match the
// JSON field names.
func ParseArrivalSpec(s string) (ArrivalSpec, error) {
	var as ArrivalSpec
	proc, rest, _ := strings.Cut(s, ":")
	as.Process = proc
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return as, fmt.Errorf("des: arrival spec %q: %q is not key=value", s, kv)
			}
			if err := as.setField(k, v); err != nil {
				return as, fmt.Errorf("des: arrival spec %q: %w", s, err)
			}
		}
	}
	if err := as.Validate(); err != nil {
		return as, err
	}
	return as, nil
}

// setField assigns one key=value pair of the compact arrival spec.
func (as *ArrivalSpec) setField(k, v string) error {
	setF := func(dst *float64) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("%s=%q: %w", k, v, err)
		}
		*dst = f
		return nil
	}
	setI := func(dst *int) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("%s=%q: %w", k, v, err)
		}
		*dst = n
		return nil
	}
	switch k {
	case "n":
		return setI(&as.N)
	case "rate":
		return setF(&as.Rate)
	case "baseRate":
		return setF(&as.BaseRate)
	case "amplitude":
		return setF(&as.Amplitude)
	case "period":
		return setF(&as.Period)
	case "shape":
		return setF(&as.Shape)
	case "scale":
		return setF(&as.Scale)
	case "burst":
		return setI(&as.Burst)
	case "interval":
		return setF(&as.Interval)
	case "size":
		return setI(&as.Size)
	case "trace":
		as.Trace = v
		return nil
	case "meanGap":
		return setF(&as.MeanGap)
	case "traceBytes":
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("%s=%q: %w", k, v, err)
		}
		as.TraceBytes = u
		return nil
	default:
		return fmt.Errorf("unknown key %q", k)
	}
}
