package model

import (
	"fmt"
	"math"
	"testing"
)

// sameBits reports whether two results are the same float64, bit for
// bit; any two NaNs count as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkDForms compares every d-taking form, given a.D(pl) or the
// Constants table, against the plain method on the same inputs.
func checkDForms(t *testing.T, pl Platform, a Application, x, p float64) {
	t.Helper()
	d := a.D(pl)
	var k Constants
	k.Fill(pl, []Application{a})
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"CostPerOpD", a.CostPerOpD(pl, d, x), a.CostPerOp(pl, x)},
		{"ExeD", a.ExeD(pl, d, p, x), a.Exe(pl, p, x)},
		{"ExeD(p=1)", a.ExeD(pl, d, 1, x), a.ExeSeq(pl, x)},
		{"MinUsefulFractionD", MinUsefulFractionD(pl, d), a.MinUsefulFraction(pl)},
		{"DominanceWeightD", a.DominanceWeightD(pl, d), a.DominanceWeight(pl)},
		{"Constants.D", k.D[0], d},
		{"Constants.Threshold", k.Threshold[0], a.MinUsefulFraction(pl)},
		{"Constants.Weight", k.Weight[0], a.DominanceWeight(pl)},
	} {
		if !sameBits(c.got, c.want) {
			t.Errorf("%s(x=%v, p=%v) = %v (%#x), plain method %v (%#x)",
				c.name, x, p, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
}

// TestDFormsMatchMethods pins the contract the per-solve constants
// table rests on: every form taking d_i returns exactly what the plain
// method returns, so reading d_i from a table cannot move a schedule.
func TestDFormsMatchMethods(t *testing.T) {
	capped := refApp()
	capped.Footprint = 8e9 // cap at a quarter of TaihuLight's cache
	noMiss := refApp()
	noMiss.RefMissRate = 0 // d_i = 0
	amdahl := refApp()
	amdahl.SeqFraction = 0.05
	apps := []struct {
		name string
		a    Application
	}{{"unbounded", refApp()}, {"capped", capped}, {"d=0", noMiss}, {"amdahl", amdahl}}

	xs := []float64{-0.2, 0, 1e-12, 1e-6, 0.1, 0.25, 0.6, 1}
	ps := []float64{-1, 0, 0.5, 1, 17, 256}
	for _, alpha := range []float64{0.5, 0.3, 0.7} {
		pl := refPlatform()
		pl.Alpha = alpha
		for _, app := range apps {
			t.Run(fmt.Sprintf("alpha=%v/%s", alpha, app.name), func(t *testing.T) {
				for _, x := range xs {
					for _, p := range ps {
						checkDForms(t, pl, app.a, x, p)
					}
				}
			})
		}
	}
}

// TestConstantsMatchEquations checks the table against the equations
// written out directly: d_i = m0·(C0/Cs)^α, d_i^{1/α} and
// (w_i f_i d_i)^{1/(α+1)}, evaluated in the same order as the model.
// The applications alternate reference cache sizes, so both the shared
// and the recomputed (C0/Cs)^α factor are covered.
func TestConstantsMatchEquations(t *testing.T) {
	pl := refPlatform()
	pl.Alpha = 0.37
	bt := Application{Name: "BT", Work: 2.10e11, AccessFreq: 8.29e-01, RefMissRate: 7.31e-03, RefCacheSize: 40e6}
	small := Application{Name: "small", Work: 3e9, AccessFreq: 0.2, RefMissRate: 0.02, RefCacheSize: 1e6}
	zero := Application{Name: "zero", Work: 1e9, AccessFreq: 0.4, RefCacheSize: 1e6}
	apps := []Application{refApp(), bt, small, zero, refApp()}
	var k Constants
	k.Fill(pl, apps)
	for i, a := range apps {
		d := a.RefMissRate * math.Pow(a.RefCacheSize/pl.CacheSize, pl.Alpha)
		want := [3]float64{d, math.Pow(d, 1/pl.Alpha), math.Pow(a.Work*a.AccessFreq*d, 1/(pl.Alpha+1))}
		got := [3]float64{k.D[i], k.Threshold[i], k.Weight[i]}
		for j := range want {
			if !sameBits(got[j], want[j]) {
				t.Errorf("app %d constant %d = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
	// Refilling for fewer applications reuses the arrays and shrinks them.
	k.Fill(pl, apps[:1])
	if len(k.D) != 1 || len(k.Threshold) != 1 || len(k.Weight) != 1 {
		t.Fatalf("refilled table lengths %d/%d/%d, want 1", len(k.D), len(k.Threshold), len(k.Weight))
	}
	// FillD computes the same d_i and empties the derived columns.
	k.FillD(pl, apps)
	if len(k.D) != len(apps) || len(k.Threshold) != 0 || len(k.Weight) != 0 {
		t.Fatalf("FillD table lengths %d/%d/%d, want %d/0/0", len(k.D), len(k.Threshold), len(k.Weight), len(apps))
	}
	for i, a := range apps {
		if !sameBits(k.D[i], a.D(pl)) {
			t.Errorf("FillD app %d: d = %v, want %v", i, k.D[i], a.D(pl))
		}
	}
}

// FuzzDFormsMatchMethods checks the bit-for-bit agreement of the
// table-driven forms with the plain methods on any valid platform,
// application, cache fraction and processor count.
func FuzzDFormsMatchMethods(f *testing.F) {
	pl, a := refPlatform(), refApp()
	f.Add(pl.Processors, pl.CacheSize, pl.LatencyS, pl.LatencyL, pl.Alpha,
		a.Work, a.SeqFraction, a.AccessFreq, a.Footprint, a.RefMissRate, a.RefCacheSize, 0.25, 64.0)
	f.Add(32.0, 1e8, 0.1, 3.0, 0.43, 1e10, 0.2, 0.7, 5e7, 0.004, 40e6, 0.9, 3.5)
	f.Fuzz(func(t *testing.T, procs, cache, ls, ll, alpha, work, seq, freq, footprint, miss, refCache, x, p float64) {
		pl := Platform{Processors: procs, CacheSize: cache, LatencyS: ls, LatencyL: ll, Alpha: alpha}
		a := Application{Work: work, SeqFraction: seq, AccessFreq: freq, Footprint: footprint, RefMissRate: miss, RefCacheSize: refCache}
		if ValidateAll(pl, []Application{a}) != nil {
			return
		}
		checkDForms(t, pl, a, x, p)
	})
}
