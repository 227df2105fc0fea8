// Package core implements the paper's primary contribution: the theory of
// dominant partitions for the CoSchedCache problem (Aupy et al., RR-8965,
// Section 4).
//
// For perfectly parallel applications the problem reduces (Lemma 3) to
// choosing the subset IC of applications that receive a cache share; once
// IC is fixed, Lemma 4 gives the optimal shares in closed form:
//
//	x_i = (w_i f_i d_i)^{1/(α+1)} / Σ_{j∈IC} (w_j f_j d_j)^{1/(α+1)}
//
// A partition is *dominant* (Definition 4) when every allotted share
// strictly exceeds the application's useless-threshold d_i^{1/α}; Theorem
// 2 shows non-dominant partitions are improvable in polynomial time and
// Theorem 3 that on dominant partitions the closed form is optimal. This
// package provides the partition type, the closed-form share computation
// and the two greedy builders Dominant (Algorithm 1) and DominantRev
// (Algorithm 2) with the three choice policies Random / MinRatio /
// MaxRatio.
package core

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/solve"
)

// Partition is a split of the application set into IC (receives cache)
// and its complement (no cache). It holds the per-application model
// constants (dominance weights and thresholds) and the dominance ratios,
// so membership tests and share computation are O(1) and O(n)
// respectively.
//
// The zero value is an empty shell; Reset (re)initializes it in place,
// reusing its backing arrays, so pooled Partitions make the scheduling
// hot path allocation-free.
type Partition struct {
	pl      model.Platform
	apps    []model.Application
	k       model.Constants // d_i, d_i^{1/α} and (w_i f_i d_i)^{1/(α+1)}; owned or the caller's table
	inCache []bool          // inCache[i] == true iff i ∈ IC
	ratio   []float64       // r_i = Weight_i / d_i^{1/α}
	sum     float64         // Σ_{j∈IC} Weight_j, maintained incrementally
	size    int             // |IC|

	own    model.Constants // backing store when Reset computes the constants
	xbuf   []float64       // scratch for SeqTimeTotal's share evaluation
	idx    []int           // scratch for the greedy builders' candidate lists
	membuf []bool          // scratch for BestRatioPrefix's best-membership copy
}

// NewPartition builds a partition over apps with the given initial
// membership. If members is nil, all applications start in IC.
func NewPartition(pl model.Platform, apps []model.Application, members []bool) (*Partition, error) {
	p := &Partition{}
	if err := p.Reset(pl, apps, members); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset re-initializes the partition in place over a new problem,
// reusing its backing arrays when they are large enough. The membership
// semantics match NewPartition: nil members puts every application in
// IC. members is copied, so callers may reuse their slice.
func (p *Partition) Reset(pl model.Platform, apps []model.Application, members []bool) error {
	return p.ResetWith(pl, apps, nil, members)
}

// ResetWith is Reset reading the model constants from k, a table the
// caller filled for (pl, apps) (see model.Constants.Fill), instead of
// computing them. The partition keeps k's arrays until its next reset,
// so the caller must not refill k meanwhile. A nil k makes ResetWith
// compute the table into the partition's own storage, which is Reset.
func (p *Partition) ResetWith(pl model.Platform, apps []model.Application, k *model.Constants, members []bool) error {
	if err := model.ValidateAll(pl, apps); err != nil {
		return err
	}
	if members != nil && len(members) != len(apps) {
		return fmt.Errorf("core: members length %d does not match %d applications", len(members), len(apps))
	}
	if k == nil {
		p.own.Fill(pl, apps)
		k = &p.own
	} else if len(k.D) != len(apps) || len(k.Threshold) != len(apps) || len(k.Weight) != len(apps) {
		return fmt.Errorf("core: constants table of lengths %d/%d/%d does not match %d applications",
			len(k.D), len(k.Threshold), len(k.Weight), len(apps))
	}
	n := len(apps)
	p.pl = pl
	p.apps = apps
	p.k = *k
	p.ratio = growF64(p.ratio, n)
	for i := range apps {
		if t := p.k.Threshold[i]; t > 0 {
			p.ratio[i] = p.k.Weight[i] / t
		} else {
			// d_i = 0: the application never misses even without cache;
			// its share is never wasted, so it can always stay in IC.
			p.ratio[i] = math.Inf(1)
		}
	}
	p.setMembers(members)
	return nil
}

// SetMembers changes the membership of a reset partition without
// recomputing its constants. It leaves the partition exactly as
// Reset(pl, apps, members) over the same problem would, Kahan weight
// sum included, and applies Reset's checks: the problem must be valid
// and a non-nil members must have one entry per application.
func (p *Partition) SetMembers(members []bool) error {
	if err := model.ValidateAll(p.pl, p.apps); err != nil {
		return err
	}
	if members != nil && len(members) != len(p.apps) {
		return fmt.Errorf("core: members length %d does not match %d applications", len(members), len(p.apps))
	}
	p.setMembers(members)
	return nil
}

// setMembers rebuilds the membership vector, |IC| and the Kahan weight
// sum, adding the member weights in index order.
func (p *Partition) setMembers(members []bool) {
	p.inCache = growBool(p.inCache, len(p.apps))
	p.size = 0
	var sum solve.Kahan
	for i := range p.apps {
		in := members == nil || members[i]
		p.inCache[i] = in
		if in {
			sum.Add(p.k.Weight[i])
			p.size++
		}
	}
	p.sum = sum.Sum()
}

// growF64 returns a slice of length n, reusing s's backing array when
// possible.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growBool is growF64 for booleans.
func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// Len returns the number of applications (both sides of the partition).
func (p *Partition) Len() int { return len(p.apps) }

// CacheSetSize returns |IC|.
func (p *Partition) CacheSetSize() int { return p.size }

// InCache reports whether application i is in IC.
func (p *Partition) InCache(i int) bool { return p.inCache[i] }

// WeightSum returns Σ_{j∈IC} (w_j f_j d_j)^{1/(α+1)}.
func (p *Partition) WeightSum() float64 { return p.sum }

// Weight returns (w_i f_i d_i)^{1/(α+1)} for application i.
func (p *Partition) Weight(i int) float64 { return p.k.Weight[i] }

// Ratio returns the dominance ratio r_i of application i.
func (p *Partition) Ratio(i int) float64 { return p.ratio[i] }

// Threshold returns d_i^{1/α} for application i.
func (p *Partition) Threshold(i int) float64 { return p.k.Threshold[i] }

// Add moves application i into IC. It is a no-op if already present.
func (p *Partition) Add(i int) {
	if !p.inCache[i] {
		p.inCache[i] = true
		p.sum += p.k.Weight[i]
		p.size++
	}
}

// Remove moves application i out of IC. It is a no-op if already absent.
func (p *Partition) Remove(i int) {
	if p.inCache[i] {
		p.inCache[i] = false
		p.sum -= p.k.Weight[i]
		p.size--
		if p.size == 0 {
			p.sum = 0 // clear accumulated rounding error
		}
	}
}

// Members returns a fresh copy of the membership vector.
func (p *Partition) Members() []bool {
	return p.MembersInto(nil)
}

// MembersInto copies the membership vector into dst, growing it when
// needed, and returns it. A nil dst allocates.
func (p *Partition) MembersInto(dst []bool) []bool {
	dst = growBool(dst, len(p.inCache))
	copy(dst, p.inCache)
	return dst
}

// Violators returns the indices i ∈ IC whose dominance condition fails,
// i.e. r_i ≤ Σ_{j∈IC} weight_j (Definition 4 requires strict >).
func (p *Partition) Violators() []int {
	var v []int
	for i := range p.apps {
		if p.inCache[i] && p.ratio[i] <= p.sum {
			v = append(v, i)
		}
	}
	return v
}

// Dominant reports whether the partition satisfies Definition 4: for all
// i ∈ IC, r_i > Σ_{j∈IC} weight_j. The empty IC is vacuously dominant.
func (p *Partition) Dominant() bool {
	for i := range p.apps {
		if p.inCache[i] && p.ratio[i] <= p.sum {
			return false
		}
	}
	return true
}

// WouldRemainDominant reports whether adding application i to IC keeps
// every member's dominance condition satisfied (the loop guard of
// Algorithm 2).
func (p *Partition) WouldRemainDominant(add int) bool {
	sum := p.sum
	if !p.inCache[add] {
		sum += p.k.Weight[add]
	}
	if p.ratio[add] <= sum {
		return false
	}
	for i := range p.apps {
		if (p.inCache[i] && i != add) && p.ratio[i] <= sum {
			return false
		}
	}
	return true
}

// Shares returns the optimal cache shares for the current partition
// according to Lemma 4 / Theorem 3: x_i = weight_i / Σ weights for
// i ∈ IC, x_i = 0 otherwise. When IC is empty it returns all zeros.
func (p *Partition) Shares() []float64 {
	return p.SharesInto(nil)
}

// SharesInto writes the optimal cache shares into dst, growing it when
// needed, and returns it. A nil dst allocates; reusing a scratch slice
// keeps repeated evaluations allocation-free.
func (p *Partition) SharesInto(dst []float64) []float64 {
	x := growF64(dst, len(p.apps))
	if p.size == 0 || p.sum == 0 {
		for i := range x {
			x[i] = 0
		}
		return x
	}
	for i := range p.apps {
		if p.inCache[i] {
			x[i] = p.k.Weight[i] / p.sum
		} else {
			x[i] = 0
		}
	}
	return x
}

// SeqTimeTotal returns Σ_i Exe_i(1, x_i) for the partition's optimal
// shares — by Lemma 3, dividing by p gives the optimal makespan for
// perfectly parallel applications under this partition.
func (p *Partition) SeqTimeTotal() float64 {
	p.xbuf = p.SharesInto(p.xbuf)
	var total solve.Kahan
	for i, a := range p.apps {
		total.Add(a.ExeD(p.pl, p.k.D[i], 1, p.xbuf[i]))
	}
	return total.Sum()
}

// Makespan returns the analytic makespan SeqTimeTotal()/p for perfectly
// parallel applications (Lemma 3). For general Amdahl applications use
// package sched, which equalizes completion times by binary search.
func (p *Partition) Makespan() float64 {
	return p.SeqTimeTotal() / p.pl.Processors
}
