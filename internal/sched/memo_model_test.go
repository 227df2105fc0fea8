package sched

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/solve"
)

// refMemo is the reference model of PlanMemo: a plan memo keyed by the
// string fingerprint of (heuristic, platform, applications), one map
// entry per plan, evicting FIFO. Every PlanMemo operation must return
// plans equal to what refMemo returns and leave the same counters;
// LookupAll and StoreAll are consecutive Get and Put calls here.
type refMemo struct {
	capacity                int
	plans                   map[string]*Schedule
	order                   []string
	head                    int
	hits, misses, evictions uint64
}

func newRefMemo(capacity int) *refMemo {
	return &refMemo{capacity: capacity, plans: make(map[string]*Schedule)}
}

func (m *refMemo) key(h Heuristic, pl model.Platform, apps []model.Application) string {
	b := binary.LittleEndian.AppendUint64(nil, uint64(h))
	b = appendBits(b, pl.Processors, pl.CacheSize, pl.LatencyS, pl.LatencyL, pl.Alpha)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(apps)))
	for _, a := range apps {
		b = appendBits(b, a.Work, a.SeqFraction, a.AccessFreq, a.Footprint, a.RefMissRate, a.RefCacheSize)
	}
	return string(b)
}

func (m *refMemo) Get(h Heuristic, pl model.Platform, apps []model.Application) (*Schedule, bool) {
	if h.Randomized() {
		return nil, false
	}
	s, ok := m.plans[m.key(h, pl, apps)]
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return s, ok
}

func (m *refMemo) Put(h Heuristic, pl model.Platform, apps []model.Application, s *Schedule) {
	if h.Randomized() || s == nil {
		return
	}
	key := m.key(h, pl, apps)
	if _, ok := m.plans[key]; ok {
		return
	}
	if len(m.plans) >= m.capacity {
		delete(m.plans, m.order[m.head])
		m.head++
		m.evictions++
	}
	m.plans[key] = s
	m.order = append(m.order, key)
}

func (m *refMemo) LookupAll(hs []Heuristic, pl model.Platform, apps []model.Application, plans []*Schedule) bool {
	for i, h := range hs {
		if h.Randomized() {
			continue
		}
		s, ok := m.Get(h, pl, apps)
		if !ok {
			return false
		}
		plans[i] = s
	}
	return true
}

func (m *refMemo) StoreAll(hs []Heuristic, pl model.Platform, apps []model.Application, plans []*Schedule) {
	for i, h := range hs {
		m.Put(h, pl, apps, plans[i])
	}
}

func (m *refMemo) Stats() MemoStats {
	return MemoStats{Hits: m.hits, Misses: m.misses, Evictions: m.evictions, Entries: len(m.plans)}
}

// samePlan reports whether a and b are both nil or equal plans: a
// PlanMemo hands back its copies of the plans it was given, so plans
// compare by value.
func samePlan(a, b *Schedule) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Makespan == b.Makespan && a.Sequential == b.Sequential && slices.Equal(a.Assignments, b.Assignments)
}

// holds reports, without counting a lookup, whether m retains h's plan
// for (pl, apps), and which.
func (m *PlanMemo) holds(h Heuristic, pl model.Platform, apps []model.Application) *Schedule {
	for i := m.first(m.fingerprint(pl, apps)); i >= 0; i = m.ring[i].next {
		if m.ring[i].h == h {
			return m.ring[i].s
		}
	}
	return nil
}

// TestPlanMemoMatchesReference drives PlanMemo and refMemo side by side
// through random interleavings of one-lane and race-wide LookupAll and
// StoreAll calls — refMemo's own Get and Put answer the one-lane ones —
// over four resident sets and every extended heuristic, at capacities
// small enough that evictions empty a resident set in the middle of a
// StoreAll. After every operation the returned plans and all four
// counters must agree, and every few operations the whole content.
func TestPlanMemoMatchesReference(t *testing.T) {
	pl := model.TaihuLight()
	base := warmApps(t, 3)
	sets := make([][]model.Application, 4)
	for k := range sets {
		sets[k] = append([]model.Application(nil), base[:1+k%3]...)
		sets[k][0].Work = float64(1e9 * (k + 1))
		sets[k][0].Name = fmt.Sprintf("renamed#%d", k) // names never matter
	}
	nh := len(ExtendedHeuristics)
	plan := make([][]*Schedule, len(sets))
	for k := range plan {
		plan[k] = make([]*Schedule, nh)
		for h := range plan[k] {
			plan[k][h] = &Schedule{Makespan: float64(100*k + h)}
		}
	}
	for _, capacity := range []int{1, 3, 8, 256} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := solve.NewRNG(seed)
			memo, ref := NewPlanMemo(capacity), newRefMemo(capacity)
			got, want := make([]*Schedule, nh), make([]*Schedule, nh)
			for op := 0; op < 4000; op++ {
				k := rng.Intn(len(sets))
				apps := sets[k]
				h := ExtendedHeuristics[rng.Intn(nh)]
				// A random ordered subset of the heuristics, sometimes all.
				perm := rng.Perm(nh)
				hs := make([]Heuristic, 1+rng.Intn(nh))
				for i := range hs {
					hs[i] = ExtendedHeuristics[perm[i]]
				}
				var desc string
				switch rng.Intn(4) {
				case 0:
					desc = fmt.Sprintf("lookup(%v, set %d)", h, k)
					s, ok := lookup(memo, h, pl, apps)
					rs, rok := ref.Get(h, pl, apps)
					// A randomized lane is skipped, which a one-lane call
					// reports as a vacuous hit.
					if !samePlan(s, rs) || ok != (rok || h.Randomized()) {
						t.Fatalf("cap %d seed %d op %d %s = (%v, %v), reference (%v, %v)", capacity, seed, op, desc, s, ok, rs, rok)
					}
				case 1:
					desc = fmt.Sprintf("store(%v, set %d)", h, k)
					s := plan[k][h]
					if rng.Intn(10) == 0 {
						s = nil
					}
					store(memo, h, pl, apps, s)
					ref.Put(h, pl, apps, s)
				case 2:
					desc = fmt.Sprintf("LookupAll(%v, set %d)", hs, k)
					clear(got)
					clear(want)
					ok := memo.LookupAll(hs, pl, apps, got)
					rok := ref.LookupAll(hs, pl, apps, want)
					if ok != rok {
						t.Fatalf("cap %d seed %d op %d %s = %v, reference %v", capacity, seed, op, desc, ok, rok)
					}
					for i := range hs {
						if !samePlan(got[i], want[i]) {
							t.Fatalf("cap %d seed %d op %d %s: lane %d %v, reference %v", capacity, seed, op, desc, i, got[i], want[i])
						}
					}
				case 3:
					desc = fmt.Sprintf("StoreAll(%v, set %d)", hs, k)
					plans := make([]*Schedule, len(hs))
					for i, hh := range hs {
						if rng.Intn(8) != 0 {
							plans[i] = plan[k][hh]
						}
					}
					memo.StoreAll(hs, pl, apps, plans)
					ref.StoreAll(hs, pl, apps, plans)
				}
				if st, rst := memo.Stats(), ref.Stats(); st != rst {
					t.Fatalf("cap %d seed %d op %d %s: stats %+v, reference %+v", capacity, seed, op, desc, st, rst)
				}
				if op%16 == 0 {
					for kk, a := range sets {
						for _, hh := range ExtendedHeuristics {
							if s, rs := memo.holds(hh, pl, a), ref.plans[ref.key(hh, pl, a)]; !samePlan(s, rs) {
								t.Fatalf("cap %d seed %d op %d %s: holds %v set %d = %v, reference %v", capacity, seed, op, desc, hh, kk, s, rs)
							}
						}
					}
				}
			}
			if capacity < 8 && memo.Stats().Evictions == 0 {
				t.Fatalf("cap %d seed %d: no evictions", capacity, seed)
			}
		}
	}
}

// TestPlanMemoStoreAllOneKey: a race's plans for one resident set share
// one key, so storing them allocates at most that key, even when each
// store first evicts a plan of the other set, and probing them
// allocates nothing.
func TestPlanMemoStoreAllOneKey(t *testing.T) {
	pl := model.TaihuLight()
	apps := warmApps(t, 4)
	other := append([]model.Application(nil), apps...)
	other[0].Work *= 2
	sets := [][]model.Application{apps, other}
	hs := ExtendedHeuristics
	plans := make([]*Schedule, len(hs))
	for i := range plans {
		plans[i] = &Schedule{Makespan: float64(i)}
	}
	memo := NewPlanMemo(len(DeterministicHeuristics))
	turn := 0
	if n := testing.AllocsPerRun(20, func() {
		memo.StoreAll(hs, pl, sets[turn%2], plans)
		turn++
	}); n > 1 {
		t.Errorf("StoreAll allocates %v times, want at most 1 (the key)", n)
	}
	if st := memo.Stats(); st.Entries != len(DeterministicHeuristics) || st.Evictions == 0 {
		t.Errorf("stats %+v, want %d entries and evictions", st, len(DeterministicHeuristics))
	}
	got := make([]*Schedule, len(hs))
	if n := testing.AllocsPerRun(10, func() {
		if !memo.LookupAll(hs, pl, sets[(turn-1)%2], got) {
			t.Fatal("LookupAll missed a stored plan")
		}
	}); n != 0 {
		t.Errorf("LookupAll allocates %v times, want 0", n)
	}
	for i, h := range hs {
		if !h.Randomized() && !samePlan(got[i], plans[i]) {
			t.Errorf("%v: got plan %v, want %v", h, got[i], plans[i])
		}
	}
}
