package portfolio

import (
	"context"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/sched"
)

// numShards stripes the cache's mutexes. 64 shards keep contention
// negligible at any realistic worker count while costing a few KB.
const numShards = 64

// shardBudget is each shard's budget of completed entries, 8,192 over
// the whole cache. coschedbench's serve-repeat mix (64 scenarios × 4
// tenants) has a working set of 1,344 entries: 9 deterministic
// heuristics per scenario plus 3 randomized ones per tenant. Its
// fullest shard holds about 32 of them at the median and 39 at p99, so
// the budget leaves about 3× headroom while capping the memo near 5 MB
// (~0.65 KB of resident memory per entry).
const shardBudget = 128

// Cache memoizes solved (scenario, heuristic) pairs behind a sharded,
// mutex-striped map. Entries are keyed by a canonical byte encoding of
// (platform, applications, heuristic, seed) — seed is omitted for
// deterministic heuristics, so e.g. DominantMinRatio on the same
// workload hits regardless of the scenario seed. Concurrent requests
// for the same key collapse into a single computation via a per-entry
// sync.Once. A Cache must not be copied after first use.
//
// The cache is bounded: each shard keeps at most shardBudget completed
// entries and evicts with CLOCK (second chance). A shard links its
// entries into a ring swept by a hand; a hit sets the entry's
// reference bit, and an insert into a full shard advances the hand,
// clearing set bits and skipping entries still in flight, until it
// finds a completed, unreferenced entry to replace. In-flight entries
// are never evicted, so concurrent identical requests still collapse.
// A shard exceeds its budget only when an insert finds every entry in
// flight; its next insert sheds the excess.
type Cache struct {
	shards       [numShards]cacheShard
	budget       int
	hits, misses atomic.Uint64
	evictions    atomic.Uint64
	capEvictions atomic.Uint64
}

// cacheShard is one mutex stripe: the key index and the CLOCK ring of
// the same entries, both guarded by mu. The ring may still hold an
// entry cancellation removed from the map until the hand reclaims its
// slot.
type cacheShard struct {
	mu   sync.Mutex
	m    map[string]*cacheEntry
	ring []*cacheEntry
	hand int
}

type cacheEntry struct {
	once     sync.Once
	schedule *sched.Schedule
	err      error
	key      string
	// done is set once the computation has returned; until then the
	// hand skips the entry.
	done atomic.Bool
	// ref is the CLOCK reference bit, guarded by the shard's mutex.
	ref bool
}

// NewCache returns an empty cache ready for concurrent use.
func NewCache() *Cache { return newCache(shardBudget) }

// newCache returns an empty cache keeping at most budget completed
// entries per shard.
func newCache(budget int) *Cache {
	c := &Cache{budget: budget}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
	}
	return c
}

// CacheStats are the cache's monotonic counters. A "hit" is a request
// that found its entry already computed (or in flight); a "miss" is a
// request that triggered the computation.
type CacheStats struct {
	Hits   uint64
	Misses uint64
	// Evictions counts entries dropped because their computation was
	// abandoned by context cancellation.
	Evictions uint64
	// CapacityEvictions counts completed entries the CLOCK hand dropped
	// to make room in a full shard.
	CapacityEvictions uint64
	Entries           int
}

// Stats snapshots the counters. Hits+Misses equals the number of
// getOrCompute calls that completed.
func (c *Cache) Stats() CacheStats {
	s := CacheStats{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Evictions:         c.evictions.Load(),
		CapacityEvictions: c.capEvictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.m)
		sh.mu.Unlock()
	}
	return s
}

// keyBufPool recycles the byte buffers scenario keys are encoded into.
// On the hit path the buffer is only used for the map probe (the
// compiler elides the string conversion in m[string(b)]), so memoized
// lookups allocate nothing; the key is materialized as a string only
// when a new entry is inserted.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// getOrCompute returns the memoized outcome for the pair, computing it
// at most once across all concurrent callers. fromCache reports whether
// this caller got a previously requested entry.
//
// Cancellation safety: a computation abandoned because its context was
// cancelled must not stick — otherwise one cancelled request would
// serve ctx.Err() to every future caller of the same scenario. When the
// computed outcome is a context error the entry is evicted; a waiter
// that collapsed onto a cancelled computation retries with its own
// (still live) context instead of inheriting a stranger's cancellation.
func (c *Cache) getOrCompute(ctx context.Context, pl model.Platform, apps []model.Application, h sched.Heuristic, seed uint64,
	compute func() (*sched.Schedule, error)) (s *sched.Schedule, err error, fromCache bool) {
	bp := keyBufPool.Get().(*[]byte)
	key := appendScenarioKey((*bp)[:0], pl, apps, h, seed)
	sh := &c.shards[shardOf(key)]
	for {
		sh.mu.Lock()
		ent, ok := sh.m[string(key)]
		if !ok {
			ent = &cacheEntry{key: string(key)}
			sh.m[ent.key] = ent
			c.admit(sh, ent)
		} else if !ent.ref {
			// Written only when clear, so hits on a hot entry stay reads.
			ent.ref = true
		}
		sh.mu.Unlock()

		computed := false
		ent.once.Do(func() {
			ent.schedule, ent.err = compute()
			ent.done.Store(true)
			computed = true
		})
		if ent.err != nil && isContextErr(ent.err) {
			// Evict the abandoned entry (only if the map still holds this
			// exact one — a concurrent retry may already have replaced it).
			sh.mu.Lock()
			if cur, ok := sh.m[string(key)]; ok && cur == ent {
				delete(sh.m, string(key))
				c.evictions.Add(1)
			}
			sh.mu.Unlock()
			if !computed && ctx.Err() == nil {
				// We collapsed onto someone else's cancelled computation
				// but our own context is live: compute it for real.
				continue
			}
		}
		*bp = key[:0]
		keyBufPool.Put(bp)
		if computed {
			c.misses.Add(1)
		} else {
			c.hits.Add(1)
		}
		return ent.schedule, ent.err, !computed
	}
}

// admit links a new entry into sh's ring; the caller holds sh.mu.
// While the ring is at its budget the CLOCK hand frees a slot: the
// first completed, unreferenced entry is replaced, and its key is
// deleted only if the map still maps the key to it (a cancelled
// entry's key may already belong to a live retry).
func (c *Cache) admit(sh *cacheShard, ent *cacheEntry) {
	for len(sh.ring) >= c.budget {
		i := sh.sweep()
		if i < 0 {
			break // every entry is in flight
		}
		old := sh.ring[i]
		if cur, ok := sh.m[old.key]; ok && cur == old {
			delete(sh.m, old.key)
			c.capEvictions.Add(1)
		}
		if len(sh.ring) == c.budget {
			sh.ring[i] = ent
			sh.hand = i + 1
			return
		}
		// Over budget after an all-in-flight insert: shed the slot.
		sh.ring = slices.Delete(sh.ring, i, i+1)
		sh.hand = i
	}
	sh.ring = append(sh.ring, ent)
}

// sweep advances the hand to the first completed entry whose reference
// bit is clear, clearing set bits on the way, and returns its index.
// Two turns clear every bit, so it returns -1 only when every entry is
// in flight.
func (sh *cacheShard) sweep() int {
	for range 2 * len(sh.ring) {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand]
		switch {
		case !e.done.Load():
		case e.ref:
			e.ref = false
		default:
			return sh.hand
		}
		sh.hand++
	}
	return -1
}

// scenarioKey builds the canonical key as a string; tests use it to
// reason about collisions.
func scenarioKey(pl model.Platform, apps []model.Application, h sched.Heuristic, seed uint64) string {
	return string(appendScenarioKey(nil, pl, apps, h, seed))
}

// appendScenarioKey appends the canonical byte encoding of one
// (platform, applications, heuristic, seed) cell to b. Every numeric
// field contributes its exact bit pattern, and names are
// length-prefixed, so distinct scenarios cannot collide. The seed
// participates only for heuristics that actually consume randomness.
func appendScenarioKey(b []byte, pl model.Platform, apps []model.Application, h sched.Heuristic, seed uint64) []byte {
	if b == nil {
		n := 8 + 5*8 + 8 + 8 // heuristic + platform + seed + app count
		for _, a := range apps {
			n += 8 + len(a.Name) + 6*8
		}
		b = make([]byte, 0, n)
	}
	b = appendU64(b, uint64(h))
	if !h.Randomized() {
		seed = 0
	}
	b = appendU64(b, seed)
	b = appendF64(b, pl.Processors, pl.CacheSize, pl.LatencyS, pl.LatencyL, pl.Alpha)
	b = appendU64(b, uint64(len(apps)))
	for _, a := range apps {
		b = appendU64(b, uint64(len(a.Name)))
		b = append(b, a.Name...)
		b = appendF64(b, a.Work, a.SeqFraction, a.AccessFreq, a.Footprint, a.RefMissRate, a.RefCacheSize)
	}
	return b
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// shardOf hashes the key with FNV-1a and folds it onto a shard index.
func shardOf(key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % numShards)
}
