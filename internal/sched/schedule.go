// Package sched turns the partition theory of internal/core into complete
// co-schedules: assignments {(p_i, x_i)} of rational processor counts and
// cache fractions to every application, for the six dominant-partition
// heuristics of Section 5 and the four baselines of Section 6
// (AllProcCache, Fair, ZeroCache, RandomPart).
//
// For perfectly parallel applications processors follow Lemma 2
// (proportional to sequential times). For general Amdahl applications the
// paper's binary-search equalizer is used: find the makespan K such that
// Σ_i (1-s_i)/(K/c_i - s_i) = p, then p_i = (1-s_i)/(K/c_i - s_i).
package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
	"repro/internal/solve"
)

// Tolerance for resource-budget validation; schedules may overshoot the
// processor or cache budget by at most this relative amount (numerical
// slack from the equalizer's bisection).
const budgetTol = 1e-6

// Assignment is the share of the platform given to one application.
type Assignment struct {
	Processors float64 // p_i, rational
	CacheShare float64 // x_i ∈ [0, 1]
}

// Schedule is a complete solution to CoSchedCache: one assignment per
// application, in application order.
type Schedule struct {
	Assignments []Assignment
	// Makespan is the analytic completion time of the longest
	// application (all applications start at time zero).
	Makespan float64
	// Sequential reports whether the schedule runs applications one
	// after another (AllProcCache) instead of concurrently; finish
	// times then accumulate.
	Sequential bool
}

// resize makes s a concurrent schedule of n assignments for the caller
// to fill, and returns them. It reuses s's assignment storage, growing
// it as append does, so a buffer reused across resident sets of rising
// size reallocates a logarithmic number of times.
func (s *Schedule) resize(n int) []Assignment {
	s.Assignments, s.Sequential = slices.Grow(s.Assignments[:0], n)[:n], false
	return s.Assignments
}

// ErrInfeasible is returned when no valid schedule exists for the inputs
// (e.g. zero applications).
var ErrInfeasible = errors.New("sched: no feasible schedule")

// FinishTimes returns each application's completion time under the
// schedule. For concurrent schedules this is Exe_i(p_i, x_i); for
// sequential ones it is the running sum of execution times.
func (s *Schedule) FinishTimes(pl model.Platform, apps []model.Application) []float64 {
	t := make([]float64, len(apps))
	var acc float64
	for i, a := range apps {
		e := a.Exe(pl, s.Assignments[i].Processors, s.Assignments[i].CacheShare)
		if s.Sequential {
			acc += e
			t[i] = acc
		} else {
			t[i] = e
		}
	}
	return t
}

// Validate checks structural soundness: a non-nil schedule, matching
// lengths, non-negative assignments, Σp_i ≤ p and Σx_i ≤ 1 (within
// tolerance), and for concurrent schedules that Makespan equals max
// finish time. Failures are *model.ValidationError values, so callers
// can inspect the offending field with errors.As.
func (s *Schedule) Validate(pl model.Platform, apps []model.Application) error {
	if s == nil {
		return &model.ValidationError{Field: "schedule", Reason: "schedule is nil"}
	}
	if len(s.Assignments) != len(apps) {
		return &model.ValidationError{
			Field: "schedule.assignments", Value: len(s.Assignments),
			Reason: fmt.Sprintf("%d assignments for %d applications", len(s.Assignments), len(apps)),
		}
	}
	var sumP, sumX solve.Kahan
	for i, asg := range s.Assignments {
		if asg.Processors < 0 || math.IsNaN(asg.Processors) {
			return &model.ValidationError{
				Field: fmt.Sprintf("schedule.assignments[%d].processors", i), Value: asg.Processors,
				Reason: "processor count must be finite and >= 0",
			}
		}
		if asg.CacheShare < 0 || asg.CacheShare > 1 || math.IsNaN(asg.CacheShare) {
			return &model.ValidationError{
				Field: fmt.Sprintf("schedule.assignments[%d].cacheShare", i), Value: asg.CacheShare,
				Reason: "cache share outside [0,1]",
			}
		}
		sumP.Add(asg.Processors)
		sumX.Add(asg.CacheShare)
	}
	if !s.Sequential {
		if sumP.Sum() > pl.Processors*(1+budgetTol) {
			return &model.ValidationError{
				Field: "schedule.assignments", Value: sumP.Sum(),
				Reason: fmt.Sprintf("processor budget exceeded: %v > %v", sumP.Sum(), pl.Processors),
			}
		}
		if sumX.Sum() > 1+budgetTol {
			return &model.ValidationError{
				Field: "schedule.assignments", Value: sumX.Sum(),
				Reason: fmt.Sprintf("cache budget exceeded: %v > 1", sumX.Sum()),
			}
		}
	}
	ft := s.FinishTimes(pl, apps)
	want := 0.0
	for _, t := range ft {
		want = math.Max(want, t)
	}
	if want > 0 && math.Abs(want-s.Makespan) > 1e-6*want {
		return fmt.Errorf("sched: recorded makespan %v differs from computed %v", s.Makespan, want)
	}
	return nil
}

// maxFinish recomputes the makespan from assignments for concurrent
// schedules, given each application's d_i.
func maxFinish(pl model.Platform, apps []model.Application, d []float64, asg []Assignment) float64 {
	var m float64
	for i, a := range apps {
		m = math.Max(m, a.ExeD(pl, d[i], asg[i].Processors, asg[i].CacheShare))
	}
	return m
}
