package solve

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBisectLinear(t *testing.T) {
	x, err := Bisect(func(x float64) float64 { return 2*x - 4 }, 0, 10, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-2) > 1e-9 {
		t.Fatalf("root %v, want 2", x)
	}
}

func TestBisectAtEndpoint(t *testing.T) {
	x, err := Bisect(func(x float64) float64 { return x }, 0, 5, 1e-12)
	if err != nil || x != 0 {
		t.Fatalf("got (%v, %v), want root exactly 0", x, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	_, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-9)
	if err != ErrNoBracket {
		t.Fatalf("got %v, want ErrNoBracket", err)
	}
}

func TestBisectSwappedInterval(t *testing.T) {
	x, err := Bisect(func(x float64) float64 { return x - 3 }, 10, 0, 1e-12)
	if err != nil || math.Abs(x-3) > 1e-9 {
		t.Fatalf("got (%v, %v)", x, err)
	}
}

func TestBisectNonlinear(t *testing.T) {
	// cos x = x has root ≈ 0.7390851332.
	x, err := Bisect(func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-0.7390851332151607) > 1e-10 {
		t.Fatalf("dottie number wrong: %v", x)
	}
}

func TestBisectDecreasing(t *testing.T) {
	// f(K) = 100/K is decreasing; f(K) = 4 at K = 25.
	k, err := BisectDecreasing(func(K float64) float64 { return 100 / K }, 4, 1, 1000, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-25) > 1e-6 {
		t.Fatalf("K = %v, want 25", k)
	}
}

func TestBisectPropertyFindsSignChange(t *testing.T) {
	// Property: for monotone cubic with a root inside, bisection finds it.
	f := func(shift uint8) bool {
		c := float64(shift%100) / 10
		root, err := Bisect(func(x float64) float64 { return x*x*x - c }, -10, 10, 1e-12)
		if err != nil {
			return false
		}
		return math.Abs(root*root*root-c) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKahanBeatsNaive(t *testing.T) {
	// Sum 1 + 1e-16 a million times: naive drops the small terms.
	var k Kahan
	k.Add(1)
	for i := 0; i < 1_000_000; i++ {
		k.Add(1e-16)
	}
	want := 1 + 1e-10
	if math.Abs(k.Sum()-want) > 1e-13 {
		t.Fatalf("kahan sum %v, want %v", k.Sum(), want)
	}
}

func TestSumEmpty(t *testing.T) {
	if s := Sum(nil); s != 0 {
		t.Fatalf("Sum(nil) = %v", s)
	}
}

func TestSumMatchesExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4.5, -2.5}
	if s := Sum(xs); s != 8 {
		t.Fatalf("Sum = %v, want 8", s)
	}
}

func TestKahanPermutationInvariance(t *testing.T) {
	// Property: compensated sums of a permuted slice agree to high
	// precision even with wide magnitude ranges.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = r.LogUniform(1e-8, 1e8)
		}
		s1 := Sum(xs)
		perm := r.Perm(len(xs))
		ys := make([]float64, len(xs))
		for i, p := range perm {
			ys[i] = xs[p]
		}
		s2 := Sum(ys)
		return math.Abs(s1-s2) <= 1e-9*math.Abs(s1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRelDiff(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct{ a, b, want float64 }{
		{1, 1, 0},
		{0, 0, 0},
		{2, 1, 0.5},
		{1, 2, 0.5},
		{-1, 1, 2},
		{inf, 1, inf},
		{inf, inf, inf}, // overflowed on both sides is still a failure
		{nan, 1, inf},
		{0, 1e-300, 1}, // tiny but unequal: relative scale still applies
	}
	for _, tc := range cases {
		if got := RelDiff(tc.a, tc.b); got != tc.want {
			t.Errorf("RelDiff(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
