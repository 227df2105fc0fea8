package solve

import "testing"

// TestBisectAllocFree pins the root finder's allocation budget at zero:
// the equalizer calls it for every heuristic evaluation, so a single
// allocation here multiplies across the whole portfolio sweep. The
// objective is built once outside the measured loop — per-call closure
// construction is the caller's budget, not Bisect's.
func TestBisectAllocFree(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	if n := testing.AllocsPerRun(200, func() {
		if _, err := Bisect(f, 0, 2, 1e-12); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Bisect allocates %g times per call, want 0", n)
	}
}

// TestBisectDecreasingAllocFree pins the shifted variant too: it used
// to wrap the objective in a fresh closure per call.
func TestBisectDecreasingAllocFree(t *testing.T) {
	f := func(x float64) float64 { return 1 / x }
	if n := testing.AllocsPerRun(200, func() {
		if _, err := BisectDecreasing(f, 2, 1e-6, 1e6, 1e-12); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("BisectDecreasing allocates %g times per call, want 0", n)
	}
}
