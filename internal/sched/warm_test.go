package sched

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

func warmApps(t *testing.T, n int) []model.Application {
	t.Helper()
	apps, err := workload.Generate(workload.Config{Generator: workload.GenNPBSynth, N: n}, solve.NewRNG(11))
	if err != nil {
		t.Fatalf("generating workload: %v", err)
	}
	return apps
}

// lookup and store are the memo's one-lane calls, as a
// single-heuristic policy makes them.
func lookup(m *PlanMemo, h Heuristic, pl model.Platform, apps []model.Application) (*Schedule, bool) {
	plans := []*Schedule{nil}
	ok := m.LookupAll([]Heuristic{h}, pl, apps, plans)
	return plans[0], ok
}

func store(m *PlanMemo, h Heuristic, pl model.Platform, apps []model.Application, s *Schedule) {
	m.StoreAll([]Heuristic{h}, pl, apps, []*Schedule{s})
}

// TestPlanMemoHitIsColdSolve is the certification property: a memo
// hit must return the exact schedule a cold solve produces, bit for
// bit, because the fingerprint covers every numeric input of the
// (pure) deterministic heuristics. The plans go in with one StoreAll
// and come out with one LookupAll, as a race's do.
func TestPlanMemoHitIsColdSolve(t *testing.T) {
	pl := model.TaihuLight()
	apps := warmApps(t, 6)
	hs := ExtendedHeuristics
	memo := NewPlanMemo(0)
	got := make([]*Schedule, len(hs))
	if memo.LookupAll(hs, pl, apps, got) {
		t.Fatal("an empty memo claimed a hit")
	}
	stored := make([]*Schedule, len(hs))
	for i, h := range hs {
		if h.Randomized() {
			continue
		}
		s, err := h.Schedule(pl, apps, nil)
		if err != nil {
			t.Fatalf("%v: solve: %v", h, err)
		}
		stored[i] = s
	}
	memo.StoreAll(hs, pl, apps, stored)
	if !memo.LookupAll(hs, pl, apps, got) {
		t.Fatal("the stored plans missed the memo")
	}
	for i, h := range hs {
		if h.Randomized() {
			continue
		}
		if !samePlan(got[i], stored[i]) {
			t.Errorf("%v: memo hit returned %+v, stored %+v", h, got[i], stored[i])
		}
		cold, err := h.Schedule(pl, apps, nil)
		if err != nil {
			t.Fatalf("%v: cold solve: %v", h, err)
		}
		if !reflect.DeepEqual(cold, got[i]) {
			t.Errorf("%v: memoized schedule differs from cold solve:\n  cold %+v\n  warm %+v", h, cold, got[i])
		}
	}
}

// TestPlanMemoNameInsensitive pins the memo-key contract: application
// names do not participate in the fingerprint (no heuristic reads
// them), so re-stamped job names must still hit.
func TestPlanMemoNameInsensitive(t *testing.T) {
	pl := model.TaihuLight()
	apps := warmApps(t, 4)
	memo := NewPlanMemo(0)
	s, err := DominantMinRatio.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	store(memo, DominantMinRatio, pl, apps, s)
	renamed := make([]model.Application, len(apps))
	copy(renamed, apps)
	for i := range renamed {
		renamed[i].Name = "renamed#42"
	}
	got, ok := lookup(memo, DominantMinRatio, pl, renamed)
	if !ok {
		t.Fatal("renamed apps missed the memo; fingerprint must ignore names")
	}
	if !samePlan(got, s) {
		t.Fatalf("renamed apps hit plan %+v, stored %+v", got, s)
	}
	// A numeric perturbation of one ulp MUST miss: the certificate is
	// exactness, not similarity.
	perturbed := make([]model.Application, len(apps))
	copy(perturbed, apps)
	perturbed[0].Work = nextUlp(perturbed[0].Work)
	if _, ok := lookup(memo, DominantMinRatio, pl, perturbed); ok {
		t.Fatal("perturbed apps hit the memo; fingerprint must be bit-exact")
	}
}

func nextUlp(v float64) float64 {
	return v * (1 + 1e-15)
}

// TestPlanMemoRandomizedBypass: randomized heuristics are never served
// from (or stored in) the memo — their plans depend on the RNG stream
// the fingerprint does not capture. Their lanes are skipped without a
// probe, so the memo's counters do not move either.
func TestPlanMemoRandomizedBypass(t *testing.T) {
	pl := model.TaihuLight()
	apps := warmApps(t, 4)
	memo := NewPlanMemo(0)
	for i := 0; i < 2; i++ {
		s, err := RandomPart.Schedule(pl, apps, solve.NewRNG(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		store(memo, RandomPart, pl, apps, s)
		if got, _ := lookup(memo, RandomPart, pl, apps); got != nil {
			t.Fatal("randomized heuristic served from the memo")
		}
	}
	if st := memo.Stats(); st != (MemoStats{}) {
		t.Fatalf("randomized lanes touched the memo: %+v", st)
	}
}

// TestPlanMemoEviction: the memo caps retained plans and evicts FIFO,
// so its content is a deterministic function of the insertion sequence.
func TestPlanMemoEviction(t *testing.T) {
	pl := model.TaihuLight()
	memo := NewPlanMemo(3)
	mk := func(w float64) []model.Application {
		a := warmApps(t, 1)
		a[0].Work = w
		return a
	}
	for w := 1.0; w <= 5; w++ {
		s, err := Fair.Schedule(pl, mk(w), nil)
		if err != nil {
			t.Fatal(err)
		}
		store(memo, Fair, pl, mk(w), s)
	}
	if st := memo.Stats(); st.Entries != 3 {
		t.Fatalf("entries = %d, want capacity 3", st.Entries)
	}
	// Oldest two evicted, newest three retained.
	for w := 1.0; w <= 5; w++ {
		_, ok := lookup(memo, Fair, pl, mk(w))
		if want := w >= 3; ok != want {
			t.Errorf("work %v: hit=%v, want %v", w, ok, want)
		}
	}
}

// TestPlanMemoHitAllocs: the certified fast path must not allocate —
// it is the inner loop of high-rate online replanning.
func TestPlanMemoHitAllocs(t *testing.T) {
	pl := model.TaihuLight()
	apps := warmApps(t, 6)
	memo := NewPlanMemo(0)
	s, err := DominantMinRatio.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	store(memo, DominantMinRatio, pl, apps, s)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := lookup(memo, DominantMinRatio, pl, apps); !ok {
			t.Fatal("unexpected miss")
		}
	})
	if allocs > 0 {
		t.Errorf("memo hit allocates %.1f times per run, want 0", allocs)
	}
}

// TestPlanMemoKeepsCopies: the memo serves what was stored even after
// the caller's buffers are overwritten by the next solve, and once its
// ring wraps it stores into the storage of the plans it evicts, with no
// allocation beyond a new set's key.
func TestPlanMemoKeepsCopies(t *testing.T) {
	pl := model.TaihuLight()
	apps := warmApps(t, 4)
	other := append([]model.Application(nil), apps...)
	other[0].Work *= 2
	hs := DeterministicHeuristics
	// solveAll returns hs's plans on set, in buffers the caller owns.
	solveAll := func(set []model.Application) []*Schedule {
		in, err := Prepare(pl, set)
		if err != nil {
			t.Fatal(err)
		}
		defer in.Release()
		plans := make([]*Schedule, len(hs))
		for i, h := range hs {
			plans[i] = new(Schedule)
			if err := h.ScheduleInto(context.Background(), &in, nil, plans[i]); err != nil {
				t.Fatal(err)
			}
		}
		return plans
	}
	memo := NewPlanMemo(len(hs))
	plans := solveAll(apps)
	memo.StoreAll(hs, pl, apps, plans)
	for _, p := range plans {
		p.Makespan = -1
		clear(p.Assignments)
	}
	got := make([]*Schedule, len(hs))
	if !memo.LookupAll(hs, pl, apps, got) {
		t.Fatal("the stored plans missed the memo")
	}
	for i, h := range hs {
		cold, err := h.Schedule(pl, apps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] == plans[i] || !reflect.DeepEqual(cold, got[i]) {
			t.Errorf("%v: memo holds %+v, want a copy of the cold solve %+v", h, got[i], cold)
		}
	}
	sets := [][]model.Application{other, apps}
	solved := [][]*Schedule{solveAll(other), solveAll(apps)}
	turn := 0
	if n := testing.AllocsPerRun(20, func() {
		memo.StoreAll(hs, pl, sets[turn%2], solved[turn%2])
		turn++
	}); n > 1 {
		t.Errorf("a wrapped memo allocates %v times per store, want at most 1 (the key)", n)
	}
}
