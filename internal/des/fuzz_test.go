package des

import (
	"bytes"
	"math"
	"testing"
)

// fuzzSimBudget bounds how large a decoded scenario the fuzzer will
// actually simulate; bigger ones stop at Build. Decoding and validation
// must hold for any input, but event-loop runtime grows with the
// arrival count and the fuzzer should spend its budget on the decoder.
const fuzzSimBudget = 24

// FuzzSpecJSON feeds arbitrary bytes to the scenario decoder. Every
// accepted spec must build, and small ones must simulate without
// panicking; whenever a simulation succeeds, its result must satisfy
// the engine's invariants (finite non-negative times, causal per-job
// metrics, time-ordered log). This is the guard against NaN/Inf/
// negative values sneaking through validation into the heuristics.
func FuzzSpecJSON(f *testing.F) {
	seeds := []string{
		`{"arrivals": {"process": "poisson", "rate": 2e-9, "n": 6}}`,
		`{"arrivals": {"process": "ipoisson", "baseRate": 2e-9, "amplitude": 1e-9, "period": 5e9, "n": 5},
		  "policy": "DominantRevMaxRatio", "seed": 7}`,
		`{"arrivals": {"process": "gamma", "shape": 0.5, "scale": 4e8, "burst": 2, "n": 6},
		  "maxResident": 2}`,
		`{"arrivals": {"process": "batch", "interval": 0, "size": 6, "n": 6},
		  "policy": "norepartition:DominantMinRatio"}`,
		`{"arrivals": {"process": "replay",
		  "replay": [{"time": 0}, {"time": 1e9}, {"time": 1e9}]},
		  "policy": "Fair", "duration": 5e9}`,
		`{"arrivals": {"process": "trace", "trace": "zipf", "meanGap": 1e8, "n": 8, "traceBytes": 65536}}`,
		`{"platform": {"processors": 16, "cacheSize": 4e7, "ls": 0.17, "ll": 1, "alpha": 0.5},
		  "apps": [{"name": "A", "work": 1e10, "seq": 0.05, "freq": 0.5, "missRate": 1e-3, "refCache": 4e7}],
		  "arrivals": {"process": "poisson", "rate": 1e-8, "n": 4}}`,
		`{"arrivals": {"process": "poisson", "rate": 1e400, "n": 1}}`,
		`{"arrivals": {"process": "replay", "replay": [{"time": -1}]}}`,
		`{"arrivals": {"process": "batch", "interval": -3, "size": 1, "n": 1}}`,
		`{}`,
		`null`,
		`[1,2`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing more to check
		}
		sc, err := sp.Build()
		if err != nil {
			// Build may still reject (e.g. a policy string naming the
			// sequential AllProcCache), but never with a panic.
			return
		}
		if tooBigToSimulate(sp) {
			return
		}
		res, err := Simulate(sc)
		if err != nil {
			return // clean errors (deadlocks, overflow) are acceptable
		}
		checkInvariants(t, res)
	})
}

// tooBigToSimulate bounds the event-loop work of one fuzz execution.
func tooBigToSimulate(sp *Spec) bool {
	if len(sp.Apps) > fuzzSimBudget {
		return true
	}
	a := sp.Arrivals
	if a.Process == "replay" {
		return len(a.Replay) > fuzzSimBudget
	}
	if a.Process == "trace" && a.TraceBytes > 1<<22 {
		return true
	}
	return a.N > fuzzSimBudget
}

// checkInvariants asserts what every successful simulation must
// guarantee, whatever the inputs.
func checkInvariants(t *testing.T, res *Result) {
	t.Helper()
	if len(res.Jobs) == 0 {
		t.Fatal("successful run with zero jobs")
	}
	if math.IsNaN(res.Makespan) || math.IsInf(res.Makespan, 0) || res.Makespan < 0 {
		t.Fatalf("non-finite makespan %v", res.Makespan)
	}
	for _, j := range res.Jobs {
		ok := !math.IsNaN(j.Arrival) && !math.IsNaN(j.Start) && !math.IsNaN(j.Finish) &&
			j.Arrival >= 0 && j.Start >= j.Arrival && j.Finish >= j.Start && j.Finish <= res.Makespan
		if !ok {
			t.Fatalf("job %d metrics out of order: arrival %v start %v finish %v (makespan %v)",
				j.Job, j.Arrival, j.Start, j.Finish, res.Makespan)
		}
		if j.Wait < 0 || j.Response < 0 || math.IsNaN(j.Stretch) {
			t.Fatalf("job %d derived metrics invalid: wait %v response %v stretch %v", j.Job, j.Wait, j.Response, j.Stretch)
		}
	}
	prev := 0.0
	for i, ev := range res.Events {
		if ev.Seq != i || ev.Time < prev || math.IsNaN(ev.Time) {
			t.Fatalf("event %d malformed: seq %d time %v (prev %v)", i, ev.Seq, ev.Time, prev)
		}
		prev = ev.Time
	}
	if res.ProcessorTime < 0 || res.CacheTime < 0 || res.QueueTime < 0 {
		t.Fatalf("negative integrals: proc %v cache %v queue %v", res.ProcessorTime, res.CacheTime, res.QueueTime)
	}
}
