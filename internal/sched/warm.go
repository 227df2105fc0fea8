package sched

import (
	"encoding/binary"
	"math"

	"repro/internal/model"
)

// This file is the warm-start layer of the incremental-replanning work:
// instead of re-solving every resident set from a cold start, online
// callers keep a PlanMemo, which serves a previously computed plan
// whenever it can *certify* bit-equivalence with a cold solve; on a
// miss they solve in full and store the plan.
//
// Why the certificate is an exact input fingerprint and not a numeric
// warm start: the obvious accelerations — seeding the equalizer's
// bisection bracket from the incumbent makespan, or starting
// LocalSearch's hill climb from the incumbent membership — are exact in
// real arithmetic but not in floats. A narrower bracket changes the
// bisection's iterate sequence, and a different climb origin reaches a
// different local optimum; either way the resulting schedule can drift
// by ulps (or more) from the cold solve, which this repository's
// bit-for-bit determinism discipline (conform golden digests, des
// event-log equality across worker counts) treats as a behavioral
// change. The only shortcut the equalizer's arithmetic admits is the
// trivial one: every deterministic heuristic is a pure function of
// (platform, applications), so if those inputs match a previous solve
// bit-for-bit, replaying the stored schedule IS the cold solve. The
// fingerprint below captures exactly the numeric fields the heuristics
// read — application names are excluded on purpose, because no
// heuristic's arithmetic reads them (they only appear in errors and
// reports) and online callers re-stamp names per job ("cg#17"), which
// would otherwise defeat the memo on recurring workload shapes. It
// covers the resident set alone: the heuristic picks one of the set's
// plans, so the plans a portfolio race stores for one resident set
// share one key, encoded, hashed and allocated once per race.

// PlanMemo memoizes deterministic heuristic plans keyed by the exact
// bit pattern of (platform, applications) — the resident set — with one
// slot per heuristic. It is the plan cache behind the DES
// delta-rescheduling policies: online resident sets recur (a drained
// wave re-admits a fresh batch of template jobs), and a recurring set
// costs one map probe instead of a full solve. A race stores its
// deterministic plans with StoreAll and a replan probes them with
// LookupAll, each with one fingerprint, one map probe and at most one
// key allocation for the whole set; a single-heuristic policy makes
// the same calls with one lane.
//
// Capacity counts plans, not resident sets, and eviction is FIFO per
// (heuristic, resident set) entry: the memo drops its oldest plan, and
// a resident set's key with its last plan. Its content — and therefore
// the hit/miss sequence — is a deterministic function of the insertion
// sequence, the same as that of a memo keyed by (heuristic, resident
// set) pairs. A PlanMemo is not safe for concurrent use; each online
// policy owns one (the DES event loop is single-threaded).
type PlanMemo struct {
	capacity int
	// index maps a resident set's fingerprint to its oldest plan in
	// ring; the set's plans are linked oldest first through next.
	index map[string]int32
	// ring holds every retained plan in insertion order from head on,
	// wrapping around once it reaches capacity: from then on each new
	// plan takes the slot of the oldest, which it evicts.
	ring      []memoPlan
	head      int
	hits      uint64
	misses    uint64
	evictions uint64
	key       []byte // recycled fingerprint buffer
}

// memoPlan is one retained plan: heuristic h's schedule for the
// resident set keyed by key.
type memoPlan struct {
	s    *Schedule
	key  string // the set's index key, shared by all its plans
	h    Heuristic
	next int32 // the set's next newer plan in ring, or -1
}

// DefaultPlanMemoCapacity bounds a policy-owned memo: comfortably more
// than the distinct resident-set shapes a cyclic template workload can
// produce (ramp-up prefixes + template rotations + drain suffixes),
// small enough that a non-recurring stream caps out at a few hundred
// retained plans.
const DefaultPlanMemoCapacity = 256

// NewPlanMemo returns an empty memo holding at most capacity plans
// (capacity < 1 selects DefaultPlanMemoCapacity).
func NewPlanMemo(capacity int) *PlanMemo {
	if capacity < 1 {
		capacity = DefaultPlanMemoCapacity
	}
	return &PlanMemo{capacity: capacity, index: make(map[string]int32)}
}

// MemoStats are a PlanMemo's monotonic counters.
type MemoStats struct {
	Hits      uint64 // lookups served from the memo (certified fast path)
	Misses    uint64 // lookups that fell back to a full solve
	Evictions uint64 // plans dropped by the FIFO capacity bound
	Entries   int    // plans currently retained
}

// Stats snapshots the counters.
func (m *PlanMemo) Stats() MemoStats {
	return MemoStats{Hits: m.hits, Misses: m.misses, Evictions: m.evictions, Entries: len(m.ring)}
}

// fingerprint appends the canonical byte encoding of (pl, apps) to m's
// recycled buffer and returns it. Every numeric field the heuristics
// read contributes its exact bit pattern; names are excluded (see the
// package comment above). Distinct inputs cannot collide, and a
// fingerprint match certifies that a stored plan is bit-identical to
// what a cold solve would produce.
func (m *PlanMemo) fingerprint(pl model.Platform, apps []model.Application) []byte {
	b := appendBits(m.key[:0], pl.Processors, pl.CacheSize, pl.LatencyS, pl.LatencyL, pl.Alpha)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(apps)))
	for _, a := range apps {
		b = appendBits(b, a.Work, a.SeqFraction, a.AccessFreq, a.Footprint, a.RefMissRate, a.RefCacheSize)
	}
	m.key = b
	return b
}

func appendBits(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// first returns the oldest plan of the resident set key fingerprints,
// or -1. The probe does not allocate (the map lookup elides the string
// conversion).
func (m *PlanMemo) first(key []byte) int32 {
	if i, ok := m.index[string(key)]; ok {
		return i
	}
	return -1
}

// find returns heuristic h's plan in the resident set whose oldest plan
// is first (-1: none), counting the lookup as a hit or a miss.
func (m *PlanMemo) find(first int32, h Heuristic) (*Schedule, bool) {
	for i := first; i >= 0; i = m.ring[i].next {
		if m.ring[i].h == h {
			m.hits++
			return m.ring[i].s, true
		}
	}
	m.misses++
	return nil, false
}

// LookupAll probes the memoized plan of every deterministic heuristic
// of hs, in order, on one input, with one fingerprint and one map
// probe: it sets plans[i] for each deterministic hs[i] and reports
// whether all of them hit, counting each probe as a hit or a miss. It
// stops at the first miss. Randomized lanes are skipped — their plans
// depend on the RNG stream, which the fingerprint deliberately does
// not capture — and left untouched, so a call whose lanes are all
// randomized reports true. The hit path performs no allocation.
// Returned schedules are shared: callers must treat them as immutable.
// plans must be at least as long as hs.
func (m *PlanMemo) LookupAll(hs []Heuristic, pl model.Platform, apps []model.Application, plans []*Schedule) bool {
	first := m.first(m.fingerprint(pl, apps))
	for i, h := range hs {
		if h.Randomized() {
			continue
		}
		s, ok := m.find(first, h)
		if !ok {
			return false
		}
		plans[i] = s
	}
	return true
}

// StoreAll stores plans[i] as the plan of each deterministic hs[i], in
// index order, on one input: one fingerprint, one map probe and at most
// one key allocation for the whole set. Randomized lanes and nil plans
// are skipped, and so is a heuristic whose plan the set already holds.
// The caller must only store plans actually produced by hs[i] on
// exactly (pl, apps); StoreAll trusts that contract. plans must be at
// least as long as hs.
func (m *PlanMemo) StoreAll(hs []Heuristic, pl model.Platform, apps []model.Application, plans []*Schedule) {
	key := m.fingerprint(pl, apps)
	first := m.first(key)
	for i, h := range hs {
		if !h.Randomized() && plans[i] != nil {
			first = m.put(key, first, h, plans[i])
		}
	}
}

// put stores s as heuristic h's plan of the resident set key
// fingerprints, whose oldest plan is first (-1 when it has none),
// unless the set already holds one, and returns the set's oldest plan
// afterwards. A full memo first evicts its oldest plan, which may be
// the set's oldest, or even its only one: the plan then starts the set
// anew, as a later StoreAll of the evicted set would, under the same
// key string.
func (m *PlanMemo) put(key []byte, first int32, h Heuristic, s *Schedule) int32 {
	last := int32(-1)
	for i := first; i >= 0; i = m.ring[i].next {
		if m.ring[i].h == h {
			return first
		}
		last = i
	}
	slot := int32(len(m.ring))
	var k string
	if len(m.ring) >= m.capacity {
		slot = int32(m.head)
		if old := m.evict(); first == slot {
			if first = old.next; first < 0 {
				last, k = -1, old.key
			}
		}
	} else {
		m.ring = append(m.ring, memoPlan{})
	}
	if first < 0 {
		if k == "" {
			k = string(key)
		}
		m.index[k] = slot
		first = slot
	} else {
		k = m.ring[first].key
		m.ring[last].next = slot
	}
	m.ring[slot] = memoPlan{s: s, key: k, h: h, next: -1}
	return first
}

// evict drops the oldest plan, the head of the ring, and returns it:
// its resident set's oldest plan becomes the next one, and a set left
// with no plan leaves the index. The caller refills the slot.
func (m *PlanMemo) evict() memoPlan {
	old := m.ring[m.head]
	if old.next >= 0 {
		m.index[old.key] = old.next
	} else {
		delete(m.index, old.key)
	}
	m.head = (m.head + 1) % len(m.ring)
	m.evictions++
	return old
}
