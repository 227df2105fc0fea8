package solve

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// Child stream should not reproduce the parent's continuation.
	p := parent.Uint64()
	c := child.Uint64()
	if p == c {
		t.Fatal("split stream mirrors parent")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnOne(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 100; i++ {
		if v := r.Intn(1); v != 0 {
			t.Fatalf("Intn(1) = %d", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 1000; i++ {
		v := r.UniformRange(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("UniformRange(-3,5) = %v", v)
		}
	}
}

func TestLogUniformRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.LogUniform(1e8, 1e12)
		if v < 1e8 || v > 1e12 {
			t.Fatalf("LogUniform = %v outside bounds", v)
		}
	}
}

func TestLogUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LogUniform with bad bounds did not panic")
		}
	}()
	NewRNG(1).LogUniform(-1, 2)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(10)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestZipfBoundsAndBias(t *testing.T) {
	r := NewRNG(12)
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		k := r.Zipf(10, 1.0)
		if k < 0 || k >= 10 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[9] {
		t.Fatalf("Zipf not biased to low ranks: first=%d last=%d", counts[0], counts[9])
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Zipf(0) did not panic")
		}
	}()
	NewRNG(1).Zipf(0, 1)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	varc := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(varc-1) > 0.05 {
		t.Fatalf("normal variance %v", varc)
	}
}

func TestIntnUnbiasedProperty(t *testing.T) {
	// Property: for any seed and bound, Intn stays in range.
	f := func(seed uint64, bound uint8) bool {
		n := int(bound%31) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
