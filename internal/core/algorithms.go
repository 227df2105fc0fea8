package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/solve"
)

// Choice selects the next application to move across the partition
// boundary. Both greedy builders call it with the set of candidate
// indices (never empty); it must return one of them.
type Choice func(p *Partition, candidates []int) int

// ChooseRandom picks a candidate uniformly at random using rng.
// It matches the paper's Random policy.
func ChooseRandom(rng *solve.RNG) Choice {
	return func(_ *Partition, candidates []int) int {
		return candidates[rng.Intn(len(candidates))]
	}
}

// ChooseMinRatio picks the candidate with the smallest dominance ratio
// r_i, the paper's MinRatio policy. Ties break on the lowest index so the
// deterministic policies are fully reproducible.
func ChooseMinRatio(p *Partition, candidates []int) int {
	best := candidates[0]
	for _, i := range candidates[1:] {
		if p.Ratio(i) < p.Ratio(best) {
			best = i
		}
	}
	return best
}

// ChooseMaxRatio picks the candidate with the largest dominance ratio
// r_i, the paper's MaxRatio policy. Ties break on the lowest index.
func ChooseMaxRatio(p *Partition, candidates []int) int {
	best := candidates[0]
	for _, i := range candidates[1:] {
		if p.Ratio(i) > p.Ratio(best) {
			best = i
		}
	}
	return best
}

// Dominant is Algorithm 1: start with IC = I and, while any member
// violates the dominance condition, evict an application chosen by
// choice from the whole of IC (the paper's choice(IC) ranges over every
// member, not only violators — this is exactly why the MaxRatio policy
// performs poorly here: it evicts the best-suited applications first).
// The returned partition is always dominant.
func Dominant(pl model.Platform, apps []model.Application, choice Choice) (*Partition, error) {
	p := &Partition{}
	if err := DominantInto(p, pl, apps, nil, choice); err != nil {
		return nil, err
	}
	return p, nil
}

// DominantInto runs Algorithm 1 into a caller-provided (possibly
// pooled) partition, reusing its backing arrays. The candidate list
// lives in the partition's scratch space, so steady-state calls do not
// allocate. k is the constants table of (pl, apps), or nil to compute
// it (see Partition.ResetWith).
func DominantInto(p *Partition, pl model.Platform, apps []model.Application, k *model.Constants, choice Choice) error {
	if err := p.ResetWith(pl, apps, k, nil); err != nil {
		return err
	}
	members := p.idx[:0]
	for {
		if p.Dominant() {
			p.idx = members
			return nil
		}
		members = members[:0]
		for i := 0; i < p.Len(); i++ {
			if p.InCache(i) {
				members = append(members, i)
			}
		}
		k := choice(p, members)
		p.Remove(k)
		if p.CacheSetSize() == 0 {
			p.idx = members
			return nil
		}
	}
}

// DominantRev is Algorithm 2: start with IC = ∅ and greedily admit
// applications chosen by choice for as long as the partition stays
// dominant. The returned partition is always dominant.
func DominantRev(pl model.Platform, apps []model.Application, choice Choice) (*Partition, error) {
	p := &Partition{}
	if err := DominantRevInto(p, pl, apps, nil, choice); err != nil {
		return nil, err
	}
	return p, nil
}

// DominantRevInto runs Algorithm 2 into a caller-provided partition,
// reusing its backing arrays and scratch space like DominantInto.
func DominantRevInto(p *Partition, pl model.Platform, apps []model.Application, k *model.Constants, choice Choice) error {
	p.membuf = growBool(p.membuf, len(apps))
	for i := range p.membuf {
		p.membuf[i] = false
	}
	if err := p.ResetWith(pl, apps, k, p.membuf); err != nil {
		return err
	}
	out := p.idx[:0]
	for {
		out = out[:0]
		for i := 0; i < p.Len(); i++ {
			if !p.InCache(i) {
				out = append(out, i)
			}
		}
		if len(out) == 0 {
			p.idx = out
			return nil
		}
		k := choice(p, out)
		if !p.WouldRemainDominant(k) {
			p.idx = out
			return nil
		}
		p.Add(k)
	}
}

// ImproveNonDominant applies one step of Theorem 2's constructive
// improvement: given a non-dominant partition, pick a violating member
// i0, move its (extended-solution) share to another member i1 and evict
// i0 from IC. It reports whether a step was applied (false when the
// partition was already dominant). Repeatedly calling it converges to a
// dominant partition in at most |IC| steps because each step strictly
// shrinks IC.
func ImproveNonDominant(p *Partition) bool {
	v := p.Violators()
	if len(v) == 0 {
		return false
	}
	i0 := v[0]
	// Theorem 2 shows an i1 ∈ IC \ {i0} always exists for a valid
	// non-dominant partition; the proof only needs i0's share handed to
	// any other member, which the closed-form Shares() re-derivation
	// after eviction subsumes.
	p.Remove(i0)
	return true
}

// BuildDominant converts a named policy into a partition. The six
// variants of the paper are the cross product {Dominant, DominantRev} ×
// {Random, MinRatio, MaxRatio}.
func BuildDominant(pl model.Platform, apps []model.Application, reverse bool, choice Choice) (*Partition, error) {
	p := &Partition{}
	if err := BuildDominantInto(p, pl, apps, nil, reverse, choice); err != nil {
		return nil, err
	}
	return p, nil
}

// BuildDominantInto is BuildDominant into a caller-provided partition
// with the constants table k (nil computes it), the allocation-free
// entry point used by the scheduling hot path.
func BuildDominantInto(p *Partition, pl model.Platform, apps []model.Application, k *model.Constants, reverse bool, choice Choice) error {
	if reverse {
		return DominantRevInto(p, pl, apps, k, choice)
	}
	return DominantInto(p, pl, apps, k, choice)
}

// CheckDominantInvariant returns an error describing the first violation
// of Definition 4, for use in tests and in the simulator's cross-checks.
func CheckDominantInvariant(p *Partition) error {
	for _, i := range p.Violators() {
		return fmt.Errorf("core: application %d violates dominance: ratio %g ≤ weight sum %g",
			i, p.Ratio(i), p.WeightSum())
	}
	return nil
}
