package core

import (
	"slices"

	"repro/internal/model"
)

// The dominance condition compares each member's ratio r_i against the
// member weight sum, so low-ratio applications are always the first to
// violate: if a partition containing application i is dominant, the
// partition obtained by swapping i for any application with a larger
// ratio has a chance to be dominant too, while the converse does not
// hold. This suggests that among memberships of a given size, the one
// keeping the LARGEST-ratio applications is the natural candidate — and
// there are only n+1 such prefix sets. BestRatioPrefix scans them all.

// BestRatioPrefix returns the best partition among the n+1 prefixes of
// the ratio-sorted order (keep the top-k applications by dominance ratio,
// k = 0…n), evaluated by the closed-form perfectly-parallel makespan
// (Lemma 3 / Lemma 4). Only dominant prefixes are considered, so the
// result always satisfies Definition 4; the empty prefix is vacuously
// dominant, guaranteeing a result. The scan is O(n²) overall (O(n) per
// prefix evaluation after sorting).
func BestRatioPrefix(pl model.Platform, apps []model.Application) (*Partition, error) {
	p := &Partition{}
	if err := BestRatioPrefixInto(p, pl, apps, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// BestRatioPrefixInto runs the prefix scan into a caller-provided
// partition, reusing its backing arrays and scratch space so repeated
// scans (e.g. the local-search warm start) do not allocate. k is the
// constants table of (pl, apps), or nil to compute it. On return p
// holds the best dominant prefix, rebuilt with a fresh Kahan weight sum
// exactly as NewPartition would produce it.
func BestRatioPrefixInto(p *Partition, pl model.Platform, apps []model.Application, k *model.Constants) error {
	// Ratios do not depend on membership, so a full-membership reset
	// doubles as the ratio probe.
	if err := p.ResetWith(pl, apps, k, nil); err != nil {
		return err
	}
	order := p.idx
	if cap(order) < len(apps) {
		order = make([]int, len(apps))
	}
	order = order[:len(apps)]
	for i := range order {
		order[i] = i
	}
	// slices.SortFunc runs sort.Slice's pdqsort on the same comparisons,
	// so ties land where they always did, without sort.Slice's
	// reflection-built swapper and escaping closure.
	slices.SortFunc(order, func(a, b int) int {
		switch ra, rb := p.Ratio(a), p.Ratio(b); {
		case ra > rb:
			return -1
		case rb > ra:
			return 1
		}
		return 0
	})
	p.idx = order

	// Start from the empty membership and admit in decreasing-ratio
	// order, tracking the best dominant prefix seen.
	for i := range p.inCache {
		p.inCache[i] = false
	}
	p.sum, p.size = 0, 0
	bestMembers := p.MembersInto(p.membuf)
	bestK := p.Makespan()
	for _, idx := range order {
		p.Add(idx)
		if !p.Dominant() {
			// Larger prefixes only increase the weight sum, so once a
			// member violates, every superset prefix violates too: the
			// member ratios are fixed and the sum grows monotonically.
			break
		}
		if k := p.Makespan(); k < bestK {
			bestK = k
			bestMembers = p.MembersInto(bestMembers)
		}
	}
	p.membuf = bestMembers
	// Rebuild the best membership's weight sum from scratch so it is
	// the Kahan sum NewPartition computes, not the incremental one.
	return p.SetMembers(bestMembers)
}
