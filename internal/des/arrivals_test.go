package des

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/solve"
	"repro/internal/trace"
	"repro/internal/workload"
)

func npbFactory(t *testing.T) JobFactory {
	t.Helper()
	f, err := CycleApps(workload.NPB())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// drain collects the whole stream, checking the interface invariants
// (finite, non-negative, non-decreasing times; valid apps).
func drain(t *testing.T, p ArrivalProcess) []Arrival {
	t.Helper()
	var out []Arrival
	prev := 0.0
	for {
		a, ok := p.Next()
		if !ok {
			return out
		}
		if err := validateArrival(a); err != nil {
			t.Fatalf("%s arrival %d: %v", p.Name(), len(out), err)
		}
		if a.Time < prev {
			t.Fatalf("%s arrival %d: time %v before %v", p.Name(), len(out), a.Time, prev)
		}
		prev = a.Time
		out = append(out, a)
	}
}

func TestPoissonMeanRate(t *testing.T) {
	const rate, n = 0.5, 4000
	p, err := NewPoisson(rate, n, npbFactory(t), solve.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	arr := drain(t, p)
	if len(arr) != n {
		t.Fatalf("got %d arrivals, want %d", len(arr), n)
	}
	// The empirical rate should be within a few percent of λ at n=4000
	// (relative error ~ 1/√n).
	got := float64(n) / arr[n-1].Time
	if math.Abs(got-rate)/rate > 0.1 {
		t.Errorf("empirical rate %v, want ~%v", got, rate)
	}
}

func TestInhomogeneousPoissonModulation(t *testing.T) {
	// Strongly modulated intensity: busy half-periods should collect
	// far more arrivals than quiet ones.
	const base, amp, period = 1.0, 0.95, 1000.0
	rate, err := SinusoidRate(base, amp, period)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewInhomogeneousPoisson(rate, base+amp, 8000, npbFactory(t), solve.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	arr := drain(t, p)
	var busy, quiet int
	for _, a := range arr {
		phase := math.Mod(a.Time, period) / period
		if phase < 0.5 {
			busy++ // sin > 0: intensity above base
		} else {
			quiet++
		}
	}
	if busy <= quiet*2 {
		t.Errorf("busy half-periods got %d arrivals vs %d quiet: thinning is not modulating", busy, quiet)
	}
}

func TestGammaBurstsStructure(t *testing.T) {
	const burst, n = 4, 400
	p, err := NewGammaBursts(0.7, 100, burst, n, npbFactory(t), solve.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	arr := drain(t, p)
	if len(arr) != n {
		t.Fatalf("got %d arrivals, want %d", len(arr), n)
	}
	// Arrivals come in runs of exactly `burst` sharing one timestamp.
	for i := 0; i < n; i += burst {
		for j := 1; j < burst; j++ {
			if arr[i+j].Time != arr[i].Time {
				t.Fatalf("arrival %d not in burst with %d: %v vs %v", i+j, i, arr[i+j].Time, arr[i].Time)
			}
		}
		if i > 0 && arr[i].Time <= arr[i-1].Time {
			t.Fatalf("burst at %d did not advance time", i)
		}
	}
}

func TestBatchSchedule(t *testing.T) {
	p, err := NewBatch(10, 3, 8, npbFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	arr := drain(t, p)
	want := []float64{0, 0, 0, 10, 10, 10, 20, 20}
	for i, a := range arr {
		if a.Time != want[i] {
			t.Errorf("arrival %d at %v, want %v", i, a.Time, want[i])
		}
	}
}

func TestReplayValidation(t *testing.T) {
	app := workload.NPB()[0]
	cases := []struct {
		name string
		arr  []Arrival
	}{
		{"empty", nil},
		{"nan time", []Arrival{{Time: math.NaN(), App: app}}},
		{"negative time", []Arrival{{Time: -1, App: app}}},
		{"inf time", []Arrival{{Time: math.Inf(1), App: app}}},
		{"unsorted", []Arrival{{Time: 5, App: app}, {Time: 1, App: app}}},
		{"bad app", []Arrival{{Time: 0}}},
	}
	for _, tc := range cases {
		if _, err := NewReplay(tc.arr); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestReplayFromTraceLocality(t *testing.T) {
	// A Zipf trace (high locality) must produce more clustered arrivals
	// than a sequential stride: compare coefficient of variation of the
	// gaps at equal mean.
	cv := func(gen trace.Generator) float64 {
		t.Helper()
		p, err := ReplayFromTrace(gen, 800, 10, npbFactory(t))
		if err != nil {
			t.Fatal(err)
		}
		arr := drain(t, p)
		var gaps []float64
		for i := 1; i < len(arr); i++ {
			gaps = append(gaps, arr[i].Time-arr[i-1].Time)
		}
		var mean, sq float64
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		for _, g := range gaps {
			sq += (g - mean) * (g - mean)
		}
		return math.Sqrt(sq/float64(len(gaps))) / mean
	}
	zipf, err := trace.NewZipf(1<<20, 64, 1.2, solve.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := trace.NewSequential(1<<20, 64)
	if err != nil {
		t.Fatal(err)
	}
	if cvZ, cvS := cv(zipf), cv(seq); cvZ <= cvS {
		t.Errorf("zipf-derived arrivals CV %v not burstier than sequential %v", cvZ, cvS)
	}
}

// TestClockOverflowExhausts: validated-but-extreme parameters
// (subnormal rates, astronomical scales) overflow virtual time; every
// built-in generator must then end its stream instead of emitting a
// contract-violating +Inf arrival.
func TestClockOverflowExhausts(t *testing.T) {
	f := npbFactory(t)
	if p, err := NewPoisson(5e-324, 3, f, solve.NewRNG(1)); err != nil {
		t.Fatal(err)
	} else if arr := drain(t, p); len(arr) != 0 {
		t.Errorf("subnormal-rate poisson emitted %d arrivals", len(arr))
	}
	if p, err := NewGammaBursts(1, 1e308, 2, 8, f, solve.NewRNG(1)); err != nil {
		t.Fatal(err)
	} else {
		drain(t, p) // drain validates finiteness and termination
	}
	if p, err := NewBatch(1e308, 1, 5, f); err != nil {
		t.Fatal(err)
	} else if arr := drain(t, p); len(arr) >= 5 {
		t.Errorf("overflowing batch schedule emitted all %d arrivals", len(arr))
	}
}

func TestConstructorValidation(t *testing.T) {
	f := npbFactory(t)
	rng := solve.NewRNG(0)
	if _, err := NewPoisson(math.NaN(), 5, f, rng); err == nil {
		t.Error("NaN rate accepted")
	}
	if _, err := NewPoisson(math.Inf(1), 5, f, rng); err == nil {
		t.Error("Inf rate accepted")
	}
	if _, err := NewPoisson(-1, 5, f, rng); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewPoisson(1, 0, f, rng); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := NewGammaBursts(0, 1, 1, 5, f, rng); err == nil {
		t.Error("zero shape accepted")
	}
	if _, err := NewBatch(math.Inf(1), 1, 5, f); err == nil {
		t.Error("Inf interval accepted")
	}
	if _, err := SinusoidRate(1, 2, 10); err == nil {
		t.Error("amplitude above base accepted")
	}
	if _, err := CycleApps(nil); err == nil {
		t.Error("empty template set accepted")
	}
	// A nil factory must fail at construction, not mid-simulation.
	if _, err := NewPoisson(1, 5, nil, rng); err == nil {
		t.Error("nil factory accepted by NewPoisson")
	}
	if _, err := NewBatch(1, 1, 5, nil); err == nil {
		t.Error("nil factory accepted by NewBatch")
	}
	if _, err := NewGammaBursts(1, 1, 1, 5, nil, rng); err == nil {
		t.Error("nil factory accepted by NewGammaBursts")
	}
}

// TestCycleAppsNames: names stamped a chunk at a time are the
// "<name>#<i>" of fmt.Sprintf, for jobs requested in order across
// several chunks and out of order too, and the profile is the
// template's.
func TestCycleAppsNames(t *testing.T) {
	tpl := workload.NPB()
	f, err := CycleApps(tpl)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, 0, 3*nameChunk+6)
	for i := range 3 * nameChunk {
		order = append(order, i)
	}
	order = append(order, 5, 4, 1000, 1001, 0, 3*nameChunk)
	for _, i := range order {
		a := f(i)
		want := tpl[i%len(tpl)]
		want.Name = fmt.Sprintf("%s#%d", want.Name, i)
		if a != want {
			t.Fatalf("job %d: %+v, want %+v", i, a, want)
		}
	}
}
