package des

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/trace"
)

// Arrival is one job arrival: a virtual time and the application profile
// that arrives then.
type Arrival struct {
	Time float64
	App  model.Application
}

// ArrivalProcess produces a finite, time-ordered stream of job arrivals.
// Implementations own their randomness (seeded solve.RNG streams) so one
// process instance yields one deterministic trace; construct a fresh
// process for every simulation run.
type ArrivalProcess interface {
	// Next returns the next arrival, or ok = false once the stream is
	// exhausted. Times are non-decreasing and finite.
	Next() (a Arrival, ok bool)
	// Name identifies the process class in reports.
	Name() string
}

// JobFactory produces the application profile of the i-th arriving job
// (i counts from 0). Factories must be deterministic in i.
type JobFactory func(i int) model.Application

// CycleApps returns a factory cycling through the template applications
// in order, renaming each instance "<name>#<i>" so per-job metrics stay
// distinguishable. It is the default factory of the scenario format.
func CycleApps(apps []model.Application) (JobFactory, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("des: job factory needs at least one template application")
	}
	for i, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("des: template app %d: %w", i, err)
		}
	}
	tpl := append([]model.Application(nil), apps...)
	// Names are stamped nameChunk jobs at a time into one string that
	// holds them back to back, and each job's name is a slice of it: a
	// stream allocates one string per chunk instead of one per job.
	var names string // the names of jobs next, next+1, ... of the chunk
	next := 0
	return func(i int) model.Application {
		var digits [20]byte
		a := tpl[i%len(tpl)]
		size := len(a.Name) + 1 + len(strconv.AppendInt(digits[:0], int64(i), 10))
		if i != next || len(names) < size {
			total := 0
			for k := i; k < i+nameChunk; k++ {
				total += len(tpl[k%len(tpl)].Name) + 1 + len(strconv.AppendInt(digits[:0], int64(k), 10))
			}
			var b strings.Builder
			b.Grow(total)
			for k := i; k < i+nameChunk; k++ {
				b.WriteString(tpl[k%len(tpl)].Name)
				b.WriteByte('#')
				b.Write(strconv.AppendInt(digits[:0], int64(k), 10))
			}
			names = b.String()
		}
		a.Name, names, next = names[:size], names[size:], i+1
		return a
	}, nil
}

// nameChunk is how many job names CycleApps stamps into one string.
const nameChunk = 64

// checkRate validates a rate-like parameter (must be finite and > 0).
func checkRate(what string, v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return fmt.Errorf("des: %s must be finite and > 0, got %v", what, v)
	}
	return nil
}

// checkCount validates an arrival count.
func checkCount(n int) error {
	if n <= 0 {
		return fmt.Errorf("des: arrival count must be > 0, got %d", n)
	}
	return nil
}

// checkFactory rejects a nil job factory at construction time, where
// the mistake is attributable, instead of mid-simulation.
func checkFactory(f JobFactory) error {
	if f == nil {
		return fmt.Errorf("des: arrival process needs a job factory (see CycleApps)")
	}
	return nil
}

// stream is every built-in arrival process. It counts the jobs, stamps
// each through the factory and ends at the n-th job or when the clock
// overflows; only at, the arrival time of each job, differs between
// processes.
type stream struct {
	name    string
	n, done int
	t       float64 // the clock: the last arrival's time, 0 before the first
	// at returns the arrival time of job i given the clock t at job i-1.
	at      func(t float64, i int) float64
	factory JobFactory
}

// newStream checks the factory and the count every generated process
// shares, after the process's own parameters.
func newStream(name string, n int, factory JobFactory, at func(t float64, i int) float64) (ArrivalProcess, error) {
	if err := checkFactory(factory); err != nil {
		return nil, err
	}
	if err := checkCount(n); err != nil {
		return nil, err
	}
	return &stream{name: name, n: n, at: at, factory: factory}, nil
}

// Next implements ArrivalProcess.
func (s *stream) Next() (Arrival, bool) {
	if s.done >= s.n {
		return Arrival{}, false
	}
	s.t = s.at(s.t, s.done)
	if clockOverflow(s.t) {
		s.done = s.n
		return Arrival{}, false
	}
	a := Arrival{Time: s.t, App: s.factory(s.done)}
	s.done++
	return a, true
}

// Name implements ArrivalProcess.
func (s *stream) Name() string { return s.name }

// NewPoisson returns a homogeneous Poisson process ("poisson") emitting
// n arrivals at the given rate (arrivals per unit virtual time):
// independent exponential inter-arrival times.
func NewPoisson(rate float64, n int, factory JobFactory, rng *solve.RNG) (ArrivalProcess, error) {
	if err := checkRate("poisson rate", rate); err != nil {
		return nil, err
	}
	r := requireRNG(rng)
	return newStream("poisson", n, factory, func(t float64, _ int) float64 {
		return t + expVariate(r, rate)
	})
}

// expVariate draws an exponential variate with the given rate by
// inversion. 1-U is in (0, 1], so the logarithm is finite.
func expVariate(rng *solve.RNG, rate float64) float64 {
	return -math.Log(1-rng.Float64()) / rate
}

// clockOverflow reports whether a generator's running arrival time has
// left the representable range (subnormal rates or astronomical scales
// make gaps infinite). Every built-in generator treats overflow as
// end-of-stream — the process can never emit a valid arrival again —
// so validated parameters never produce a contract-violating arrival.
func clockOverflow(t float64) bool {
	return math.IsInf(t, 1) || math.IsNaN(t)
}

// RateFunc is a time-varying arrival intensity λ(t) ≥ 0.
type RateFunc func(t float64) float64

// SinusoidRate returns the diurnal-style intensity base + amp·sin(2πt/period),
// the standard test function for inhomogeneous Poisson simulation. It
// requires 0 ≤ amp ≤ base so the intensity never goes negative.
func SinusoidRate(base, amp, period float64) (RateFunc, error) {
	if err := checkRate("sinusoid base rate", base); err != nil {
		return nil, err
	}
	if err := checkRate("sinusoid period", period); err != nil {
		return nil, err
	}
	if !(amp >= 0) || amp > base {
		return nil, fmt.Errorf("des: sinusoid amplitude %v outside [0, base=%v]", amp, base)
	}
	return func(t float64) float64 {
		return base + amp*math.Sin(2*math.Pi*t/period)
	}, nil
}

// NewInhomogeneousPoisson returns a process ("ipoisson") emitting n
// arrivals with time-varying intensity rate, simulated by Lewis–Shedler
// thinning: candidate points are drawn from a homogeneous process at
// the bounding rate maxRate and accepted with probability
// λ(t)/maxRate (the standard IPPP recipe). λ(t) values exceeding the
// bound are clamped, preserving correctness of the acceptance test at
// the cost of flattening the excess.
func NewInhomogeneousPoisson(rate RateFunc, maxRate float64, n int, factory JobFactory, rng *solve.RNG) (ArrivalProcess, error) {
	if rate == nil {
		return nil, fmt.Errorf("des: inhomogeneous poisson needs a rate function")
	}
	if err := checkRate("inhomogeneous poisson max rate", maxRate); err != nil {
		return nil, err
	}
	r := requireRNG(rng)
	return newStream("ipoisson", n, factory, func(t float64, _ int) float64 {
		for {
			t += expVariate(r, maxRate)
			if clockOverflow(t) {
				// No further candidate can ever be accepted, so the
				// stream ends rather than spinning in the thinning loop
				// forever.
				return t
			}
			lambda := rate(t)
			if !(lambda >= 0) {
				lambda = 0
			}
			if lambda > maxRate {
				lambda = maxRate
			}
			if r.Float64()*maxRate < lambda {
				return t
			}
		}
	})
}

// NewGammaBursts returns a bursty process ("gamma") emitting n arrivals
// in bursts of burst simultaneous arrivals separated by Gamma(shape,
// scale)-distributed gaps. Shapes below 1 give heavier-than-exponential
// burstiness (CV > 1), shapes above 1 regularize toward periodic
// batches.
func NewGammaBursts(shape, scale float64, burst, n int, factory JobFactory, rng *solve.RNG) (ArrivalProcess, error) {
	if err := checkRate("gamma shape", shape); err != nil {
		return nil, err
	}
	if err := checkRate("gamma scale", scale); err != nil {
		return nil, err
	}
	if burst <= 0 {
		return nil, fmt.Errorf("des: gamma burst size must be > 0, got %d", burst)
	}
	r := requireRNG(rng)
	return newStream("gamma", n, factory, func(t float64, i int) float64 {
		if i%burst == 0 {
			t += gammaVariate(r, shape) * scale
		}
		return t
	})
}

// gammaVariate draws Gamma(shape, 1) with the Marsaglia–Tsang squeeze
// method; shapes below 1 use the standard boosting identity
// Gamma(a) = Gamma(a+1) · U^{1/a}.
func gammaVariate(rng *solve.RNG, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaVariate(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// NewBatch returns a deterministic process ("batch") emitting n
// arrivals in groups of size, one group every interval time units
// starting at t = 0. An interval of 0 with size ≥ n reproduces the
// paper's offline setting: every job present at t = 0.
func NewBatch(interval float64, size, n int, factory JobFactory) (ArrivalProcess, error) {
	if interval < 0 || math.IsNaN(interval) || math.IsInf(interval, 0) {
		return nil, fmt.Errorf("des: batch interval must be finite and >= 0, got %v", interval)
	}
	if size <= 0 {
		return nil, fmt.Errorf("des: batch size must be > 0, got %d", size)
	}
	return newStream("batch", n, factory, func(_ float64, i int) float64 {
		return float64(i/size) * interval
	})
}

// NewReplay returns a process ("replay") replaying the given arrivals
// verbatim — the bridge from captured production traces (or any other
// generator's output) back into the simulator. The trace is validated
// (finite, non-negative, sorted times; valid applications) and copied.
func NewReplay(arrivals []Arrival) (ArrivalProcess, error) {
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("des: replay needs at least one arrival")
	}
	prev := 0.0
	for i, a := range arrivals {
		if math.IsNaN(a.Time) || math.IsInf(a.Time, 0) || a.Time < 0 {
			return nil, fmt.Errorf("des: replay arrival %d has invalid time %v", i, a.Time)
		}
		if a.Time < prev {
			return nil, fmt.Errorf("des: replay arrivals out of order: t=%v after t=%v", a.Time, prev)
		}
		prev = a.Time
		if err := a.App.Validate(); err != nil {
			return nil, fmt.Errorf("des: replay arrival %d: %w", i, err)
		}
	}
	arr := append([]Arrival(nil), arrivals...)
	return &stream{name: "replay", n: len(arr),
		at:      func(_ float64, i int) float64 { return arr[i].Time },
		factory: func(i int) model.Application { return arr[i].App },
	}, nil
}

// ReplayFromTrace derives an arrival trace from an internal/trace memory
// access stream and returns a replay of it (NewReplay): the gap before
// arrival i is proportional to the address distance between consecutive
// accesses, normalized so the mean gap equals meanGap. High-locality
// traces (Zipf, working-set) thus produce clustered, bursty arrivals
// while streaming traces produce near-regular ones — reusing the trace
// generators' locality knobs as arrival-correlation knobs.
func ReplayFromTrace(g trace.Generator, n int, meanGap float64, factory JobFactory) (ArrivalProcess, error) {
	if g == nil {
		return nil, fmt.Errorf("des: trace replay needs a generator")
	}
	if err := checkFactory(factory); err != nil {
		return nil, err
	}
	if err := checkCount(n); err != nil {
		return nil, err
	}
	if err := checkRate("trace replay mean gap", meanGap); err != nil {
		return nil, err
	}
	deltas := make([]float64, n)
	var sum float64
	prev := g.Next().Addr
	for i := range deltas {
		cur := g.Next().Addr
		d := float64(cur) - float64(prev)
		if d < 0 {
			d = -d
		}
		deltas[i] = d
		sum += d
		prev = cur
	}
	arrivals := make([]Arrival, n)
	t := 0.0
	for i, d := range deltas {
		if sum > 0 {
			t += d / sum * float64(n) * meanGap // normalize: mean gap = meanGap
		}
		arrivals[i] = Arrival{Time: t, App: factory(i)}
	}
	// Guard against degenerate traces collapsing every arrival onto one
	// instant with a zero total span; times are already sorted by
	// construction, but assert the invariant cheaply.
	if !sort.SliceIsSorted(arrivals, func(a, b int) bool { return arrivals[a].Time < arrivals[b].Time }) {
		return nil, fmt.Errorf("des: internal error: trace-derived arrivals unsorted")
	}
	return NewReplay(arrivals)
}

// requireRNG substitutes a deterministic default stream for nil.
func requireRNG(rng *solve.RNG) *solve.RNG {
	if rng == nil {
		return solve.NewRNG(0)
	}
	return rng
}
