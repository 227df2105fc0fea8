package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/solve"
)

func refPlatform() model.Platform { return model.TaihuLight() }

// npbApps returns Table 2's six applications, perfectly parallel.
func npbApps() []model.Application {
	mk := func(name string, w, f, m float64) model.Application {
		return model.Application{Name: name, Work: w, AccessFreq: f, RefMissRate: m, RefCacheSize: 40e6}
	}
	return []model.Application{
		mk("CG", 5.70e10, 5.35e-01, 6.59e-04),
		mk("BT", 2.10e11, 8.29e-01, 7.31e-03),
		mk("LU", 1.52e11, 7.50e-01, 1.51e-03),
		mk("SP", 1.38e11, 7.62e-01, 1.51e-02),
		mk("MG", 1.23e10, 5.40e-01, 2.62e-02),
		mk("FT", 1.65e10, 5.82e-01, 1.78e-02),
	}
}

func randomApps(seed uint64, n int) []model.Application {
	r := solve.NewRNG(seed)
	apps := make([]model.Application, n)
	for i := range apps {
		apps[i] = model.Application{
			Name: "r", Work: r.LogUniform(1e8, 1e12),
			AccessFreq:   0.1 + 0.8*r.Float64(),
			RefMissRate:  r.UniformRange(9e-4, 1e-2),
			RefCacheSize: 40e6,
		}
	}
	return apps
}

func TestNewPartitionValidation(t *testing.T) {
	pl := refPlatform()
	if _, err := NewPartition(pl, nil, nil); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := NewPartition(pl, npbApps(), make([]bool, 2)); err == nil {
		t.Fatal("length-mismatched members accepted")
	}
	bad := npbApps()
	bad[0].Work = -1
	if _, err := NewPartition(pl, bad, nil); err == nil {
		t.Fatal("invalid application accepted")
	}
}

func TestPartitionBookkeeping(t *testing.T) {
	pl := refPlatform()
	apps := npbApps()
	p, err := NewPartition(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 6 || p.CacheSetSize() != 6 {
		t.Fatalf("fresh partition: Len=%d size=%d", p.Len(), p.CacheSetSize())
	}
	var want solve.Kahan
	for i, a := range apps {
		want.Add(a.DominanceWeight(pl))
		if p.Weight(i) != a.DominanceWeight(pl) {
			t.Fatalf("weight %d mismatch", i)
		}
	}
	if math.Abs(p.WeightSum()-want.Sum()) > 1e-9*want.Sum() {
		t.Fatalf("weight sum %v, want %v", p.WeightSum(), want.Sum())
	}
	p.Remove(0)
	p.Remove(0) // idempotent
	if p.CacheSetSize() != 5 || p.InCache(0) {
		t.Fatal("remove failed")
	}
	p.Add(0)
	p.Add(0) // idempotent
	if p.CacheSetSize() != 6 || !p.InCache(0) {
		t.Fatal("add failed")
	}
	if math.Abs(p.WeightSum()-want.Sum()) > 1e-9*want.Sum() {
		t.Fatalf("incremental sum drifted: %v vs %v", p.WeightSum(), want.Sum())
	}
}

func TestEmptyPartitionSumIsZero(t *testing.T) {
	pl := refPlatform()
	apps := npbApps()
	p, err := NewPartition(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range apps {
		p.Remove(i)
	}
	if p.WeightSum() != 0 || p.CacheSetSize() != 0 {
		t.Fatalf("emptied partition: sum=%v size=%d", p.WeightSum(), p.CacheSetSize())
	}
	if !p.Dominant() {
		t.Fatal("empty IC must be vacuously dominant")
	}
	x := p.Shares()
	for i, xi := range x {
		if xi != 0 {
			t.Fatalf("share %d = %v for empty IC", i, xi)
		}
	}
}

func TestSharesSumToOne(t *testing.T) {
	pl := refPlatform()
	p, err := NewPartition(pl, npbApps(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x := p.Shares()
	if s := solve.Sum(x); math.Abs(s-1) > 1e-12 {
		t.Fatalf("shares sum %v", s)
	}
}

func TestSharesMatchLemma4(t *testing.T) {
	pl := refPlatform()
	apps := npbApps()
	members := []bool{true, true, false, true, false, false}
	p, err := NewPartition(pl, apps, members)
	if err != nil {
		t.Fatal(err)
	}
	x := p.Shares()
	var denom float64
	for i, a := range apps {
		if members[i] {
			denom += a.DominanceWeight(pl)
		}
	}
	for i, a := range apps {
		want := 0.0
		if members[i] {
			want = a.DominanceWeight(pl) / denom
		}
		if math.Abs(x[i]-want) > 1e-12 {
			t.Fatalf("share %d = %v, want %v", i, x[i], want)
		}
	}
}

// Lemma 4 optimality: perturbing the closed-form shares in any
// direction (while keeping feasibility) cannot decrease Σ w_i f_i d_i / x_i^α.
func TestSharesAreStationary(t *testing.T) {
	pl := refPlatform()
	apps := npbApps()
	p, err := NewPartition(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := p.Shares()
	objective := func(x []float64) float64 {
		var k solve.Kahan
		for i, a := range apps {
			k.Add(a.Work * a.AccessFreq * a.D(pl) / math.Pow(x[i], pl.Alpha))
		}
		return k.Sum()
	}
	base := objective(x)
	r := solve.NewRNG(44)
	for trial := 0; trial < 200; trial++ {
		// Move eps mass from one app to another.
		i, j := r.Intn(len(x)), r.Intn(len(x))
		if i == j {
			continue
		}
		eps := 1e-4 * r.Float64() * x[i]
		y := append([]float64(nil), x...)
		y[i] -= eps
		y[j] += eps
		if objective(y) < base*(1-1e-12) {
			t.Fatalf("perturbation improved the Lemma 4 objective: %v < %v", objective(y), base)
		}
	}
}

func TestDominantAlgorithmProducesDominant(t *testing.T) {
	pl := refPlatform()
	for seed := uint64(0); seed < 20; seed++ {
		apps := randomApps(seed, 64)
		for _, choice := range []Choice{ChooseMinRatio, ChooseMaxRatio, ChooseRandom(solve.NewRNG(seed))} {
			p, err := Dominant(pl, apps, choice)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckDominantInvariant(p); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestDominantRevProducesDominant(t *testing.T) {
	pl := refPlatform()
	for seed := uint64(0); seed < 20; seed++ {
		apps := randomApps(seed, 64)
		for _, choice := range []Choice{ChooseMinRatio, ChooseMaxRatio, ChooseRandom(solve.NewRNG(seed))} {
			p, err := DominantRev(pl, apps, choice)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckDominantInvariant(p); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestDominantRevAddsUntilBlocked(t *testing.T) {
	// On the NPB set with a large cache everything is dominant, so
	// DominantRev should admit every application.
	pl := refPlatform()
	p, err := DominantRev(pl, npbApps(), ChooseMaxRatio)
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheSetSize() != 6 {
		t.Fatalf("admitted %d of 6", p.CacheSetSize())
	}
}

func TestDominantKeepsAllWhenAlreadyDominant(t *testing.T) {
	pl := refPlatform()
	p, err := Dominant(pl, npbApps(), ChooseMinRatio)
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheSetSize() != 6 {
		t.Fatalf("evicted from an already-dominant full set: %d left", p.CacheSetSize())
	}
}

func TestDominantEvictsUnderSmallCache(t *testing.T) {
	// Shrink the LLC until d_i blow up: some applications must go.
	pl := refPlatform()
	pl.CacheSize = 1e6 // 1 MB
	apps := randomApps(3, 32)
	for i := range apps {
		apps[i].RefMissRate = 0.5 // huge miss rates at 40 MB
	}
	p, err := Dominant(pl, apps, ChooseMinRatio)
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheSetSize() == len(apps) {
		t.Fatal("expected evictions under a 1MB cache with 0.5 miss rates")
	}
	if err := CheckDominantInvariant(p); err != nil {
		t.Fatal(err)
	}
}

func TestImproveNonDominantConverges(t *testing.T) {
	pl := refPlatform()
	pl.CacheSize = 1e6
	apps := randomApps(5, 32)
	for i := range apps {
		apps[i].RefMissRate = 0.5
	}
	p, err := NewPartition(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for ImproveNonDominant(p) {
		steps++
		if steps > len(apps) {
			t.Fatal("Theorem 2 improvement did not converge within n steps")
		}
	}
	if !p.Dominant() {
		t.Fatal("improvement loop ended on a non-dominant partition")
	}
}

// Theorem 2, observable consequence: the makespan of the dominant
// partition reached by eviction is no worse than the non-dominant start.
func TestImprovementNeverHurtsMakespan(t *testing.T) {
	pl := refPlatform()
	pl.CacheSize = 1e6
	for seed := uint64(0); seed < 10; seed++ {
		apps := randomApps(seed, 24)
		for i := range apps {
			apps[i].RefMissRate = 0.6
		}
		p, err := NewPartition(pl, apps, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := p.Makespan()
		for ImproveNonDominant(p) {
		}
		after := p.Makespan()
		if after > before*(1+1e-9) {
			t.Fatalf("seed %d: improvement raised makespan %v → %v", seed, before, after)
		}
	}
}

func TestWouldRemainDominantAgreesWithAdd(t *testing.T) {
	pl := refPlatform()
	pl.CacheSize = 5e7
	f := func(seed uint64) bool {
		apps := randomApps(seed, 16)
		p, err := NewPartition(pl, apps, make([]bool, len(apps)))
		if err != nil {
			return false
		}
		r := solve.NewRNG(seed)
		for step := 0; step < 8; step++ {
			i := r.Intn(len(apps))
			if p.InCache(i) {
				continue
			}
			pred := p.WouldRemainDominant(i)
			p.Add(i)
			dominant := p.Dominant()
			if dominant != pred {
				return false
			}
			if !dominant {
				p.Remove(i) // restore a dominant state before continuing
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMembersRoundTrip(t *testing.T) {
	pl := refPlatform()
	apps := npbApps()
	members := []bool{true, false, true, false, true, false}
	p, err := NewPartition(pl, apps, members)
	if err != nil {
		t.Fatal(err)
	}
	copied := p.Members()
	for i := range members {
		if copied[i] != members[i] {
			t.Fatalf("members mismatch at %d", i)
		}
	}
	// Mutating the copy must not affect the partition.
	copied[0] = false
	if !p.InCache(0) {
		t.Fatal("Members leaked internal state")
	}
}

func TestMakespanMatchesLemma3(t *testing.T) {
	pl := refPlatform()
	apps := npbApps()
	p, err := NewPartition(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := p.Shares()
	var sum float64
	for i, a := range apps {
		sum += a.ExeSeq(pl, x[i])
	}
	want := sum / pl.Processors
	if got := p.Makespan(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("makespan %v, want %v", got, want)
	}
}

// Dominance with zero-miss applications: d_i = 0 gives infinite ratio, so
// the app never blocks dominance and receives a zero-weight share.
func TestZeroMissApplication(t *testing.T) {
	pl := refPlatform()
	apps := npbApps()
	apps[0].RefMissRate = 0
	p, err := NewPartition(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Ratio(0), 1) {
		t.Fatalf("zero-miss ratio %v, want +Inf", p.Ratio(0))
	}
	if !p.Dominant() {
		t.Fatal("zero-miss app should not break dominance")
	}
	if x := p.Shares(); x[0] != 0 {
		t.Fatalf("zero-miss app received cache share %v", x[0])
	}
}

// Property: for any random workload, both greedy builders end dominant
// and their shares are feasible.
func TestBuildersFeasibilityProperty(t *testing.T) {
	pl := refPlatform()
	pl.CacheSize = 1e8
	f := func(seed uint64, rev bool) bool {
		apps := randomApps(seed, 20)
		p, err := BuildDominant(pl, apps, rev, ChooseMinRatio)
		if err != nil {
			return false
		}
		if !p.Dominant() {
			return false
		}
		x := p.Shares()
		sum := solve.Sum(x)
		if sum > 1+1e-9 {
			return false
		}
		for i, xi := range x {
			if xi < 0 {
				return false
			}
			// Dominance guarantees allotted shares exceed the useless
			// threshold.
			if p.InCache(i) && xi <= p.Threshold(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// samePartition fails the test unless p and q hold bit-identical
// constants, ratios, membership, |IC| and weight sums.
func samePartition(t *testing.T, p, q *Partition) {
	t.Helper()
	if p.Len() != q.Len() || p.CacheSetSize() != q.CacheSetSize() {
		t.Fatalf("len/|IC| %d/%d, want %d/%d", p.Len(), p.CacheSetSize(), q.Len(), q.CacheSetSize())
	}
	if math.Float64bits(p.WeightSum()) != math.Float64bits(q.WeightSum()) {
		t.Fatalf("weight sum %v, want %v", p.WeightSum(), q.WeightSum())
	}
	for i := 0; i < p.Len(); i++ {
		if p.InCache(i) != q.InCache(i) ||
			math.Float64bits(p.Weight(i)) != math.Float64bits(q.Weight(i)) ||
			math.Float64bits(p.Ratio(i)) != math.Float64bits(q.Ratio(i)) ||
			math.Float64bits(p.Threshold(i)) != math.Float64bits(q.Threshold(i)) {
			t.Fatalf("app %d: (%v %v %v %v), want (%v %v %v %v)", i,
				p.InCache(i), p.Weight(i), p.Ratio(i), p.Threshold(i),
				q.InCache(i), q.Weight(i), q.Ratio(i), q.Threshold(i))
		}
	}
}

// TestSetMembersMatchesReset: changing the membership of a reset
// partition must leave it exactly as a full Reset at that membership,
// Kahan weight sum included, so the local-search toggles cannot move a
// schedule.
func TestSetMembersMatchesReset(t *testing.T) {
	pl := refPlatform()
	pl.Alpha = 0.41
	for seed := uint64(1); seed <= 50; seed++ {
		apps := randomApps(seed, 2+int(seed%9))
		r := solve.NewRNG(seed)
		var p, q Partition
		if err := p.Reset(pl, apps, nil); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			m := make([]bool, len(apps))
			for i := range m {
				m[i] = r.Intn(2) == 1
			}
			if err := p.SetMembers(m); err != nil {
				t.Fatal(err)
			}
			if err := q.Reset(pl, apps, m); err != nil {
				t.Fatal(err)
			}
			samePartition(t, &p, &q)
		}
		if err := p.SetMembers(nil); err != nil {
			t.Fatal(err)
		}
		if err := q.Reset(pl, apps, nil); err != nil {
			t.Fatal(err)
		}
		samePartition(t, &p, &q)
	}
}

// TestSetMembersChecks: SetMembers keeps Reset's checks.
func TestSetMembersChecks(t *testing.T) {
	var p Partition
	if err := p.SetMembers(nil); err == nil {
		t.Fatal("SetMembers on a partition never reset accepted")
	}
	if err := p.Reset(refPlatform(), npbApps(), nil); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 5, 7} {
		if err := p.SetMembers(make([]bool, n)); err == nil {
			t.Fatalf("members of length %d accepted for 6 applications", n)
		}
	}
	if p.CacheSetSize() != 6 {
		t.Fatalf("rejected SetMembers changed |IC| to %d", p.CacheSetSize())
	}
}

// TestResetWithMatchesReset: a partition reading a filled constants
// table is bit-identical to one computing its own, and a table of the
// wrong length is rejected.
func TestResetWithMatchesReset(t *testing.T) {
	pl := refPlatform()
	pl.Alpha = 0.63
	apps := randomApps(7, 9)
	members := []bool{true, false, true, true, false, true, false, true, true}
	var k model.Constants
	k.Fill(pl, apps)
	var p, q Partition
	if err := p.ResetWith(pl, apps, &k, members); err != nil {
		t.Fatal(err)
	}
	if err := q.Reset(pl, apps, members); err != nil {
		t.Fatal(err)
	}
	samePartition(t, &p, &q)
	if a, b := p.SeqTimeTotal(), q.SeqTimeTotal(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("SeqTimeTotal %v, want %v", a, b)
	}
	k.Fill(pl, apps[:4])
	if err := p.ResetWith(pl, apps, &k, nil); err == nil {
		t.Fatal("constants table for 4 applications accepted for 9")
	}
	k.FillD(pl, apps)
	if err := p.ResetWith(pl, apps, &k, nil); err == nil {
		t.Fatal("table holding only d_i accepted")
	}
}
