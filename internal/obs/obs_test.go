package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety drives every handle type through a nil receiver: the
// whole instrumentation design rests on "nil is off" never panicking.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(5)
	g.Add(-2)
	g.Inc()
	g.Dec()
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %d", g.Value())
	}
	var h *Histogram
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("nil histogram quantile = %v, want NaN", q)
	}
	var v *CounterVec
	v.With("x").Inc()

	var tr *Tracer
	tr.Event("e", "k", 1, 0)
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer recorded something")
	}
	if err := tr.WriteNDJSON(nil); err != nil {
		t.Errorf("nil tracer WriteNDJSON: %v", err)
	}

	var p *Profiles
	if err := p.Start(); err != nil {
		t.Errorf("nil profiles Start: %v", err)
	}
	if err := p.Stop(); err != nil {
		t.Errorf("nil profiles Stop: %v", err)
	}
}

// TestNilRegistryHandles checks that a nil registry hands out nil
// (no-op) metrics from every constructor.
func TestNilRegistryHandles(t *testing.T) {
	var r *Registry
	if c := r.Counter("a_total", ""); c != nil {
		t.Error("nil registry returned non-nil counter")
	}
	if g := r.Gauge("b", ""); g != nil {
		t.Error("nil registry returned non-nil gauge")
	}
	if h := r.Histogram("c", "", []float64{1}); h != nil {
		t.Error("nil registry returned non-nil histogram")
	}
	if v := r.CounterVec("d_total", "", "k"); v != nil {
		t.Error("nil registry returned non-nil vec")
	}
	r.CounterFunc("e_total", "", func() float64 { return 1 })
	r.GaugeFunc("f", "", func() float64 { return 1 })
	if s := r.Snapshot(); s != nil {
		t.Errorf("nil registry snapshot = %v", s)
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatalf("nil registry WriteProm: %v", err)
	}
	if sb.String() != "" {
		t.Errorf("nil registry exposition = %q", sb.String())
	}
}

// TestRegistryIdempotent verifies that re-registering an identical
// spec returns the same underlying series (layer sharing), and that a
// conflicting spec panics.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("races_total", "races")
	b := r.Counter("races_total", "races")
	a.Inc()
	if b.Value() != 1 {
		t.Errorf("re-registered counter not shared: %d", b.Value())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("conflicting re-registration did not panic")
			}
		}()
		r.Gauge("races_total", "now a gauge")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid metric name did not panic")
			}
		}()
		r.Counter("bad name", "")
	}()
}

// TestRegistryConcurrency hammers one registry from many goroutines
// under -race: concurrent registration, labeled-child creation,
// observations and exports must all be safe, and counts must add up.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hammer_total", "")
			g := r.Gauge("hammer_depth", "")
			h := r.Histogram("hammer_seconds", "", []float64{0.25, 0.5, 0.75})
			vec := r.CounterVec("hammer_by_worker_total", "", "worker")
			mine := vec.With(string(rune('a' + w%4)))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%100) / 100)
				mine.Inc()
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WriteProm(&sb); err != nil {
						t.Errorf("WriteProm: %v", err)
						return
					}
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	if got := r.Counter("hammer_total", "").Value(); got != total {
		t.Errorf("hammer_total = %d, want %d", got, total)
	}
	if got := r.Gauge("hammer_depth", "").Value(); got != 0 {
		t.Errorf("hammer_depth = %d, want 0", got)
	}
	h := r.Histogram("hammer_seconds", "", []float64{0.25, 0.5, 0.75})
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	var labeled uint64
	for _, s := range r.Snapshot() {
		if s.Name == "hammer_by_worker_total" {
			labeled += uint64(s.Value)
		}
	}
	if labeled != total {
		t.Errorf("labeled sum = %d, want %d", labeled, total)
	}
}

// TestHistogramBoundaries pins the bucket contract: le bounds are
// inclusive, values above the last bound land in +Inf, cumulative
// counts are monotone and _count equals the +Inf count.
func TestHistogramBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	count, sum, buckets := h.snapshot()
	if count != 8 {
		t.Fatalf("count = %d, want 8", count)
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2 + 3 + 4 + 5 + 100
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", sum, wantSum)
	}
	wantCum := []uint64{2, 4, 6, 8} // le=1:{0.5,1} le=2:{+1.0000001,2} le=4:{3,4} +Inf:{5,100}
	for i, b := range buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket[%d] le=%v count = %d, want %d", i, b.LE, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(buckets[len(buckets)-1].LE, 1) {
		t.Error("last bucket is not +Inf")
	}
	if buckets[len(buckets)-1].Count != count {
		t.Error("+Inf bucket != count")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30})
	for i := 1; i <= 30; i++ {
		h.Observe(float64(i))
	}
	// Uniform over (0,30]: the median interpolates to ~15.
	if q := h.Quantile(0.5); math.Abs(q-15) > 1 {
		t.Errorf("p50 = %v, want ~15", q)
	}
	if q := h.Quantile(1); math.Abs(q-30) > 1e-9 {
		t.Errorf("p100 = %v, want 30", q)
	}
	empty := newHistogram([]float64{1})
	if q := empty.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty quantile = %v, want NaN", q)
	}
	h.Observe(1e9) // lands in +Inf: quantile clamps to last finite bound
	if q := h.Quantile(1); q != 30 {
		t.Errorf("quantile in +Inf bucket = %v, want 30", q)
	}
}

// TestHistogramQuantileEdges pins q=0, q=1 and single-bucket behavior.
// Quantile(0) used to return the first bucket's bound even when that
// bucket was empty (rank 0 satisfies Count >= 0), i.e. an upper bound
// on values the histogram never saw.
func TestHistogramQuantileEdges(t *testing.T) {
	// All mass in the second bucket: q=0 must land inside (10, 20],
	// not on the empty first bucket's bound 10... and certainly not
	// below it.
	h := newHistogram([]float64{10, 20, 30})
	for i := 0; i < 4; i++ {
		h.Observe(15)
	}
	if q := h.Quantile(0); q <= 10 || q > 20 {
		t.Errorf("Quantile(0) = %v, want a value in the occupied bucket (10, 20]", q)
	}
	if lo, hi := h.Quantile(0), h.Quantile(1); lo > hi {
		t.Errorf("Quantile(0)=%v > Quantile(1)=%v", lo, hi)
	}
	if q := h.Quantile(1); q != 20 {
		t.Errorf("Quantile(1) = %v, want 20 (upper bound of the occupied bucket)", q)
	}

	// Single occupied bucket, single observation: every quantile
	// interpolates within (0, 5].
	one := newHistogram([]float64{5})
	one.Observe(2)
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		if v := one.Quantile(q); v != 5 {
			t.Errorf("single-bucket Quantile(%v) = %v, want 5 (rank 1 of 1 fills the bucket)", q, v)
		}
	}

	// Out-of-range q clamps rather than extrapolating.
	if v := one.Quantile(-3); v != one.Quantile(0) {
		t.Errorf("Quantile(-3) = %v, want Quantile(0)", v)
	}
	if v := one.Quantile(7); v != one.Quantile(1) {
		t.Errorf("Quantile(7) = %v, want Quantile(1)", v)
	}
	if v := one.Quantile(math.NaN()); !math.IsNaN(v) {
		t.Errorf("Quantile(NaN) = %v, want NaN", v)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(exp[i]-want[i]) > 1e-12 {
			t.Errorf("ExpBuckets[%d] = %v, want %v", i, exp[i], want[i])
		}
	}
	for _, bad := range [][]float64{nil, {1, 1}, {2, 1}, {math.NaN()}, {math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("checkBuckets(%v) did not panic", bad)
				}
			}()
			checkBuckets(bad)
		}()
	}
}
