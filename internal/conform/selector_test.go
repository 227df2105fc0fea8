package conform

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/genscen"
	"repro/internal/selector"
)

// trainLedger builds, once per test binary, the ledger that
// `go run ./cmd/ledger train -no-merge -seeds 100` writes.
var trainLedger = sync.OnceValues(func() (*selector.Ledger, error) {
	l := selector.New()
	return l, TrainLedger(context.Background(), l, genscen.Families, 1, 100, 0)
})

// trainedLedger returns the trained ledger after pinning its identity:
// a change to the generators, the heuristics or the ledger's bucketing
// shows up as a fingerprint change here.
func trainedLedger(t *testing.T) *selector.Ledger {
	t.Helper()
	l, err := trainLedger()
	if err != nil {
		t.Fatal(err)
	}
	if fp, b, r := l.Fingerprint(), len(l.Buckets()), l.Races(); fp != "10adc420ff838207" || b != 394 || r != 8400 {
		t.Fatalf("trained ledger: fingerprint %s, %d buckets, %d races; want 10adc420ff838207, 394, 8400", fp, b, r)
	}
	return l
}

// TestSelectorModeGolden is the learned-selection regression gate: the
// trained ledger must drive the harness through the golden corpus with
// zero violations — decisions bit-identical between the serial and
// parallel arms, audited gaps within the committed bound on
// oracle-exact families — while leaving every digest exactly as the
// plain run computes it (selection is measured, never perturbing).
func TestSelectorModeGolden(t *testing.T) {
	gold, err := LoadGolden(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(gold.Options(Options{Workers: 8, Selector: trainedLedger(t)}))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Families {
		for _, v := range f.Violations {
			t.Errorf("violation: %s seed %d [%s]: %s", v.Family, v.Seed, v.Check, v.Detail)
		}
	}
	for _, diff := range gold.Compare(rep.Golden()) {
		t.Errorf("golden mismatch under selector: %s", diff)
	}

	predicted := 0
	for _, f := range rep.Families {
		s := f.Selector
		if s == nil {
			t.Errorf("family %s: no selector summary", f.Family)
			continue
		}
		if s.Races != rep.Seeds {
			t.Errorf("family %s: %d races, want one per seed (%d)", f.Family, s.Races, rep.Seeds)
		}
		if s.Predicted+s.Fallbacks != s.Races {
			t.Errorf("family %s: predicted %d + fallbacks %d != races %d", f.Family, s.Predicted, s.Fallbacks, s.Races)
		}
		predicted += s.Predicted
	}
	if predicted == 0 {
		t.Error("trained ledger served no predictions anywhere — the shortcut path is untested")
	}

	var md bytes.Buffer
	if err := rep.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "## Learned selection") {
		t.Error("markdown report missing the Learned selection section")
	}
}

// TestSelectorSummariesWorkerInvariant: the per-family selection
// summaries (served counts, audited gaps) must not depend on the
// harness's worker count — the decision is a pure function of
// (ledger, scenario).
func TestSelectorSummariesWorkerInvariant(t *testing.T) {
	opt := Options{
		Seeds:    2,
		Families: []genscen.Family{genscen.SingleApp, genscen.LatencyDominated},
		Selector: trainedLedger(t),
	}
	opt.Workers = 1
	r1, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	r8, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Families {
		s1, s8 := r1.Families[i].Selector, r8.Families[i].Selector
		if !reflect.DeepEqual(s1, s8) {
			t.Errorf("family %s: selector summary differs between 1 and 8 workers: %+v vs %+v",
				r1.Families[i].Family, s1, s8)
		}
	}
}

// TestSelectorEmptyLedger: an evidence-free ledger must fall back to
// the full race on every scenario — no violations, no served
// predictions, and digests bit-identical to a run without a selector.
func TestSelectorEmptyLedger(t *testing.T) {
	opt := Options{
		Seeds:    2,
		Families: []genscen.Family{genscen.AmdahlMix, genscen.ZeroWork},
		Workers:  2,
	}
	plain, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Selector = selector.New()
	sel, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sel.Families {
		for _, v := range f.Violations {
			t.Errorf("violation: %s seed %d [%s]: %s", v.Family, v.Seed, v.Check, v.Detail)
		}
		if f.Selector == nil {
			t.Errorf("family %s: no selector summary", f.Family)
			continue
		}
		if f.Selector.Predicted != 0 || f.Selector.Fallbacks != f.Selector.Races {
			t.Errorf("family %s: empty ledger served predictions: %+v", f.Family, f.Selector)
		}
		if f.Selector.FallbackRatio != 1 {
			t.Errorf("family %s: fallback ratio %v, want 1", f.Family, f.Selector.FallbackRatio)
		}
	}
	want, got := plain.Digests(), sel.Digests()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("selector run perturbed digests: %v vs %v", got, want)
	}
	for _, f := range plain.Families {
		if f.Selector != nil {
			t.Errorf("family %s: plain run has a selector summary", f.Family)
		}
	}
}
