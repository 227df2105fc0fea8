package des

import (
	"testing"

	"repro/internal/selector"
	"repro/internal/workload"
)

// An empty (or absent) ledger never predicts, so "portfolio:selector"
// must reproduce "portfolio" bit for bit — the safe-default contract
// that lets the spec string ship ahead of any trained ledger.
func TestSelectorPolicyEmptyLedgerMatchesPortfolio(t *testing.T) {
	base, err := Simulate(mustBuild(t, metricsSpec("portfolio")))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Simulate(mustBuild(t, metricsSpec("portfolio:selector")))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Events) != len(sel.Events) {
		t.Fatalf("event count %d != %d", len(sel.Events), len(base.Events))
	}
	for i := range base.Events {
		if base.Events[i] != sel.Events[i] {
			t.Fatalf("event %d differs: %+v != %+v", i, sel.Events[i], base.Events[i])
		}
	}
	if base.Makespan != sel.Makespan {
		t.Fatalf("makespan %v != %v", sel.Makespan, base.Makespan)
	}
}

// A confident prediction must be served by exactly the predicted
// heuristic, on the substream it would have drawn inside the race.
func TestSelectorPolicyPredictsWinner(t *testing.T) {
	pol, err := ParsePolicy("portfolio:selector", 7)
	if err != nil {
		t.Fatal(err)
	}
	pp := pol.(*PortfolioPolicy)
	pl := mustBuild(t, metricsSpec("portfolio")).Platform
	var residents []Resident
	for i, a := range workload.NPB()[:3] {
		residents = append(residents, Resident{Job: i, App: a, Remaining: 1})
	}
	apps := residualApps(nil, residents)
	bucket := selector.Extract(pl, apps).Bucket()

	// Hand-train the scenario's own bucket so DominantMinRatio is the
	// confident call.
	l := selector.New()
	for range [3]struct{}{} {
		if err := l.Ingest(selector.RaceRecord{Bucket: bucket, Heuristic: "DominantMinRatio", Win: true, Margin: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !ConfigureSelector(pp, l) {
		t.Fatal("ConfigureSelector refused a selector-mode policy")
	}
	if ConfigureSelector(mustParse(t, "portfolio"), l) {
		t.Fatal("ConfigureSelector accepted a non-selector policy")
	}

	asg, err := pp.Allocate(pl, residents)
	if err != nil {
		t.Fatal(err)
	}
	if preds, fbs := pp.SelectorStats(); preds != 1 || fbs != 0 {
		t.Fatalf("stats = %d predictions, %d fallbacks; want 1, 0", preds, fbs)
	}
	want, err := mustParse(t, "DominantMinRatio").Allocate(pl, residents)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg) != len(want) {
		t.Fatalf("assignment count %d != %d", len(asg), len(want))
	}
	for i := range want {
		if asg[i] != want[i] {
			t.Fatalf("assignment %d: %+v != %+v", i, asg[i], want[i])
		}
	}

	// An unseen resident shape has no bucket evidence: full race.
	more := append(residents, Resident{Job: 3, App: workload.NPB()[4], Remaining: 0.5, Started: true})
	if _, err := pp.Allocate(pl, more); err != nil {
		t.Fatal(err)
	}
	if preds, fbs := pp.SelectorStats(); preds != 1 || fbs != 1 {
		t.Fatalf("stats after fallback = %d predictions, %d fallbacks; want 1, 1", preds, fbs)
	}
}

func TestSelectorPolicyName(t *testing.T) {
	if got := mustParse(t, "portfolio:selector").Name(); got != "portfolio:selector" {
		t.Fatalf("Name() = %q", got)
	}
	if got := mustParse(t, "portfolio").Name(); got != "portfolio" {
		t.Fatalf("Name() = %q", got)
	}
}

func mustParse(t *testing.T, spec string) Policy {
	t.Helper()
	pol, err := ParsePolicy(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}
