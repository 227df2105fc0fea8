package sched

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/solve"
)

// Heuristic names one of the ten scheduling policies evaluated in the
// paper.
type Heuristic int

const (
	// DominantRandom: Algorithm 1 with the Random choice policy.
	DominantRandom Heuristic = iota
	// DominantMinRatio: Algorithm 1 evicting the smallest dominance
	// ratio first — the paper's reference heuristic.
	DominantMinRatio
	// DominantMaxRatio: Algorithm 1 evicting the largest ratio first.
	DominantMaxRatio
	// DominantRevRandom: Algorithm 2 with Random.
	DominantRevRandom
	// DominantRevMinRatio: Algorithm 2 admitting the smallest ratio first.
	DominantRevMinRatio
	// DominantRevMaxRatio: Algorithm 2 admitting the largest ratio
	// first; ties DominantMinRatio as best in the paper.
	DominantRevMaxRatio
	// Fair gives every application p/n processors and a cache share
	// proportional to its access frequency.
	Fair
	// ZeroCache gives nobody cache and equalizes completion times
	// ("0cache" in the paper).
	ZeroCache
	// RandomPart puts a uniformly random subset in cache, computes
	// shares with the dominant-partition closed form, and equalizes.
	RandomPart
	// AllProcCache runs applications sequentially, each with the whole
	// machine and the whole cache (the no-co-scheduling baseline).
	AllProcCache
	// SharedCache co-schedules on an UNPARTITIONED LLC: occupancies
	// follow access pressure instead of a deliberate split (extension;
	// quantifies what partitioning itself buys).
	SharedCache
	// LocalSearch refines DominantMinRatio by Amdahl-aware membership
	// hill-climbing (extension; the paper's named future work).
	LocalSearch
)

// Heuristics lists the paper's ten policies in presentation order.
// The extensions SharedCache and LocalSearch are kept out of this list so
// the reproduced figures contain exactly the paper's series; see
// ExtendedHeuristics.
var Heuristics = []Heuristic{
	DominantRandom, DominantMinRatio, DominantMaxRatio,
	DominantRevRandom, DominantRevMinRatio, DominantRevMaxRatio,
	Fair, ZeroCache, RandomPart, AllProcCache,
}

// ExtendedHeuristics lists every policy including the extensions.
var ExtendedHeuristics = append(append([]Heuristic{}, Heuristics...), SharedCache, LocalSearch)

// DeterministicHeuristics lists the extended policies whose schedule
// is a pure function of (platform, applications) — the subset for
// which properties like permutation invariance are promised (the
// randomized policies key their seed-derived choices to input
// positions by design, so a fixed seed reproduces a fixed schedule).
var DeterministicHeuristics = func() []Heuristic {
	var hs []Heuristic
	for _, h := range ExtendedHeuristics {
		if !h.Randomized() {
			hs = append(hs, h)
		}
	}
	return hs
}()

// DominantHeuristics lists the six dominant-partition variants compared
// in Figure 1.
var DominantHeuristics = []Heuristic{
	DominantRandom, DominantMinRatio, DominantMaxRatio,
	DominantRevRandom, DominantRevMinRatio, DominantRevMaxRatio,
}

// String implements fmt.Stringer using the paper's small-caps names.
func (h Heuristic) String() string {
	switch h {
	case DominantRandom:
		return "DominantRandom"
	case DominantMinRatio:
		return "DominantMinRatio"
	case DominantMaxRatio:
		return "DominantMaxRatio"
	case DominantRevRandom:
		return "DominantRevRandom"
	case DominantRevMinRatio:
		return "DominantRevMinRatio"
	case DominantRevMaxRatio:
		return "DominantRevMaxRatio"
	case Fair:
		return "Fair"
	case ZeroCache:
		return "ZeroCache"
	case RandomPart:
		return "RandomPart"
	case AllProcCache:
		return "AllProcCache"
	case SharedCache:
		return "SharedCache"
	case LocalSearch:
		return "LocalSearch"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// Randomized reports whether the heuristic consumes the random stream:
// its schedule then depends on the RNG seed, while every other policy is
// a pure function of (platform, applications). LocalSearch is
// deterministic even though it accepts an RNG — the stream is only
// threaded through to its deterministic DominantMinRatio warm start.
func (h Heuristic) Randomized() bool {
	switch h {
	case DominantRandom, DominantRevRandom, RandomPart:
		return true
	}
	return false
}

// ParseHeuristic resolves a case-sensitive heuristic name as produced by
// String.
func ParseHeuristic(name string) (Heuristic, error) {
	for _, h := range ExtendedHeuristics {
		if h.String() == name {
			return h, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown heuristic %q", name)
}

// Schedule computes a complete schedule with heuristic h. rng drives the
// randomized policies (DominantRandom, DominantRevRandom, RandomPart) and
// may be nil for deterministic ones. Scheduling runs on pooled scratch
// buffers: beyond the returned Schedule the steady-state evaluation
// performs no heap allocations.
func (h Heuristic) Schedule(pl model.Platform, apps []model.Application, rng *solve.RNG) (*Schedule, error) {
	return h.ScheduleContext(context.Background(), pl, apps, rng)
}

// ScheduleContext is Schedule under a context: the iterative heuristics
// (LocalSearch's membership hill climb) poll ctx between refinement
// steps and abandon the computation with ctx.Err() once it is
// cancelled. The closed-form heuristics complete in microseconds and
// only check ctx on entry. Cancellation never corrupts pooled scratch —
// buffers return to the pool in a reusable state, and a subsequent call
// on a live context produces bit-identical schedules. It is Prepare
// followed by one SchedulePrepared.
func (h Heuristic) ScheduleContext(ctx context.Context, pl model.Platform, apps []model.Application, rng *solve.RNG) (*Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	in, err := Prepare(pl, apps)
	if err != nil {
		return nil, err
	}
	defer in.Release()
	return h.SchedulePrepared(ctx, &in, rng)
}

// SchedulePrepared is ScheduleContext on a prepared input: it skips the
// validation Prepare did, and every evaluation on in shares one scratch
// and one constants table. The schedule is bit-identical to
// ScheduleContext's on the same (platform, applications) pair.
func (h Heuristic) SchedulePrepared(ctx context.Context, in *Prepared, rng *solve.RNG) (*Schedule, error) {
	s := new(Schedule)
	if err := h.ScheduleInto(ctx, in, rng, s); err != nil {
		return nil, err
	}
	return s, nil
}

// ScheduleInto is SchedulePrepared writing the schedule into dst: its
// assignments reuse dst.Assignments' storage when it is large enough,
// so a caller that keeps one dst per heuristic evaluates without
// allocating. The schedule is bit-identical to SchedulePrepared's; on
// an error dst holds no schedule.
func (h Heuristic) ScheduleInto(ctx context.Context, in *Prepared, rng *solve.RNG, dst *Schedule) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return h.scheduleWith(ctx, in.scratchFor(h), in.pl, in.apps, rng, dst)
}

// scheduleWith dispatches to the heuristic implementations on an
// already-validated input with a caller-held scratch whose constants
// table holds what h reads for (pl, apps) (see Prepared.scratchFor),
// writing the schedule into dst.
func (h Heuristic) scheduleWith(ctx context.Context, sc *scratch, pl model.Platform, apps []model.Application, rng *solve.RNG, dst *Schedule) error {
	switch h {
	case DominantRandom, DominantMinRatio, DominantMaxRatio,
		DominantRevRandom, DominantRevMinRatio, DominantRevMaxRatio:
		return dominantSchedule(sc, pl, apps, h, rng, dst)
	case Fair:
		fairSchedule(pl, apps, sc.k.D, dst)
		return nil
	case ZeroCache:
		shares := growF64(sc.shares, len(apps))
		for i := range shares {
			shares[i] = 0
		}
		sc.shares = shares
		return sharesScheduleWith(sc, pl, apps, shares, dst)
	case RandomPart:
		return randomPartSchedule(sc, pl, apps, rng, dst)
	case AllProcCache:
		allProcCacheSchedule(pl, apps, sc.k.D, dst)
		return nil
	case SharedCache:
		return sharedCacheSchedule(sc, pl, apps, dst)
	case LocalSearch:
		return localSearchSchedule(ctx, sc, pl, apps, rng, dst)
	default:
		return fmt.Errorf("sched: unknown heuristic %v", h)
	}
}

// choice maps a dominant-partition heuristic to its core.Choice. The
// Random policy draws from rng through the scratch's one persistent
// closure, core.ChooseRandom's draw, so a randomized build allocates no
// closure of its own.
func (sc *scratch) choice(h Heuristic, rng *solve.RNG) (core.Choice, bool, error) {
	switch h {
	case DominantRandom, DominantRevRandom:
		sc.rng = requireRNG(rng)
		if sc.random == nil {
			sc.random = func(_ *core.Partition, candidates []int) int {
				return candidates[sc.rng.Intn(len(candidates))]
			}
		}
		return sc.random, h == DominantRevRandom, nil
	case DominantMinRatio:
		return core.ChooseMinRatio, false, nil
	case DominantMaxRatio:
		return core.ChooseMaxRatio, false, nil
	case DominantRevMinRatio:
		return core.ChooseMinRatio, true, nil
	case DominantRevMaxRatio:
		return core.ChooseMaxRatio, true, nil
	}
	return nil, false, fmt.Errorf("sched: %v is not a dominant-partition heuristic", h)
}

func requireRNG(rng *solve.RNG) *solve.RNG {
	if rng == nil {
		// Deterministic fallback keeps the API total; callers that care
		// about replicate independence pass their own stream.
		return solve.NewRNG(0)
	}
	return rng
}

// dominantSchedule: build a dominant partition on the perfectly parallel
// proxy of the applications (Section 5 temporarily assumes s_i = 0 to
// pick the partition), take the closed-form cache shares, then equalize
// completion times for the true Amdahl profiles. The builders read only
// the constants table and none of its entries depends on s_i, so
// building on the applications themselves picks the proxy's partition.
// The partition is left over (pl, apps) with the solve's table.
func dominantSchedule(sc *scratch, pl model.Platform, apps []model.Application, h Heuristic, rng *solve.RNG, dst *Schedule) error {
	choice, reverse, err := sc.choice(h, rng)
	if err != nil {
		return err
	}
	if err := core.BuildDominantInto(&sc.part, pl, apps, &sc.k, reverse, choice); err != nil {
		return err
	}
	sc.shares = sc.part.SharesInto(sc.shares)
	return sharesScheduleWith(sc, pl, apps, sc.shares, dst)
}

// sharesScheduleWith is sharesScheduleEq on pooled scratch.
func sharesScheduleWith(sc *scratch, pl model.Platform, apps []model.Application, shares []float64, dst *Schedule) error {
	return sharesScheduleEq(&sc.eq, pl, apps, sc.k.D, shares, dst)
}

// sharesScheduleEq completes a schedule from fixed cache shares by
// equalizing completion times with eq, given each application's d_i,
// and writes it into dst. The makespan reads each application's cost
// per operation from the equalization (eq.makespan), so the shares'
// power law is evaluated once per application.
func sharesScheduleEq(eq *equalizer, pl model.Platform, apps []model.Application, d, shares []float64, dst *Schedule) error {
	procs, _, err := eq.equalize(pl, apps, d, shares)
	if err != nil {
		return err
	}
	asg := dst.resize(len(apps))
	for i := range apps {
		asg[i] = Assignment{Processors: procs[i], CacheShare: shares[i]}
	}
	dst.Makespan = eq.makespan(apps, procs)
	return nil
}

// fairSchedule: p_i = p/n and x_i = f_i / Σf_j (Section 6.3).
func fairSchedule(pl model.Platform, apps []model.Application, d []float64, dst *Schedule) {
	n := float64(len(apps))
	var fsum solve.Kahan
	for _, a := range apps {
		fsum.Add(a.AccessFreq)
	}
	total := fsum.Sum()
	asg := dst.resize(len(apps))
	for i, a := range apps {
		x := 0.0
		if total > 0 {
			x = a.AccessFreq / total
		}
		asg[i] = Assignment{Processors: pl.Processors / n, CacheShare: x}
	}
	dst.Makespan = maxFinish(pl, apps, d, asg)
}

// randomPartSchedule: uniformly random membership, closed-form shares on
// the members, equalized processors (Section 6.3).
func randomPartSchedule(sc *scratch, pl model.Platform, apps []model.Application, rng *solve.RNG, dst *Schedule) error {
	r := requireRNG(rng)
	members := growBool(sc.members, len(apps))
	sc.members = members
	for i := range members {
		members[i] = r.Intn(2) == 1
	}
	if err := sc.part.ResetWith(pl, apps, &sc.k, members); err != nil {
		return err
	}
	sc.shares = sc.part.SharesInto(sc.shares)
	return sharesScheduleWith(sc, pl, apps, sc.shares, dst)
}

// allProcCacheSchedule: applications run one after another, each on the
// whole machine with the whole cache.
func allProcCacheSchedule(pl model.Platform, apps []model.Application, d []float64, dst *Schedule) {
	asg := dst.resize(len(apps))
	var total solve.Kahan
	for i, a := range apps {
		asg[i] = Assignment{Processors: pl.Processors, CacheShare: 1}
		total.Add(a.ExeD(pl, d[i], pl.Processors, 1))
	}
	dst.Makespan, dst.Sequential = total.Sum(), true
}

// SortedByRatio returns application indices sorted by increasing
// dominance ratio, a convenience for analyses and tests.
func SortedByRatio(pl model.Platform, apps []model.Application) []int {
	idx := make([]int, len(apps))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return apps[idx[a]].DominanceRatio(pl) < apps[idx[b]].DominanceRatio(pl)
	})
	return idx
}
