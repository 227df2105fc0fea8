package conform

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/genscen"
	"repro/internal/obs"
)

// harnessReport is what the mode-generic tests read from a Report or a
// FleetReport.
type harnessReport interface {
	Markdown(io.Writer) error
	NDJSON(io.Writer) error
	ViolationCount() int
	Digests() map[string]string
	Golden() *Golden
}

// mode is one harness as the table-driven tests drive it.
type mode struct {
	name       string
	corpus     string // committed golden corpus under testdata
	familyLine string // "type" of an NDJSON family line
	prefix     string // starts the mode's Compare messages
	families   []string
	// run sweeps families; the fleet harness has no worker count.
	run func(seeds, workers int, metrics *obs.Registry) (harnessReport, error)
}

// modes returns both harnesses, the single-node one sweeping nodeFams
// and the fleet one fleetFams.
func modes(nodeFams []genscen.Family, fleetFams []genscen.FleetFamily) []mode {
	return []mode{
		{
			name: "single-node", corpus: "golden.json", familyLine: "family", families: names(nodeFams),
			run: func(seeds, workers int, metrics *obs.Registry) (harnessReport, error) {
				return Run(Options{Seeds: seeds, Families: nodeFams, Workers: workers, Metrics: metrics})
			},
		},
		{
			name: "fleet", corpus: "golden_fleet.json", familyLine: "fleet-family", prefix: "fleet ",
			families: names(fleetFams),
			run: func(seeds, workers int, metrics *obs.Registry) (harnessReport, error) {
				return RunFleet(FleetOptions{Seeds: seeds, Families: fleetFams, Metrics: metrics})
			},
		},
	}
}

// names lists the families' names.
func names[F fmt.Stringer](fams []F) []string {
	var s []string
	for _, f := range fams {
		s = append(s, f.String())
	}
	return s
}

// TestGoldenDigests is the regression gate: re-running the committed
// corpus's scenarios must reproduce its digests bit-for-bit AND pass
// every cross-check. Any behavioral drift in model, sched, portfolio,
// sim, des, genscen or oracle fails here.
//
// To re-baseline after an intentional change:
//
//	go run ./cmd/conform -seeds 4 -golden internal/conform/testdata/golden.json -update
func TestGoldenDigests(t *testing.T) {
	gold, err := LoadGolden(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(gold.Options(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Families {
		for _, v := range f.Violations {
			t.Errorf("violation: %s seed %d [%s]: %s", v.Family, v.Seed, v.Check, v.Detail)
		}
	}
	for _, diff := range gold.Compare(rep.Golden()) {
		t.Errorf("golden mismatch: %s", diff)
	}
}

// TestDigestsWorkerInvariant: the committed single-node digests must
// not depend on the harness's worker count (otherwise the golden gate
// would be machine-dependent). The fleet harness has no such arm:
// workers size nothing in a fleet run, whose node races run serially;
// TestFleetGoldenDigests pins the fleet digests, and the conform-tagged
// TestFleetRoutingDeterminism compares two fleet runs.
func TestDigestsWorkerInvariant(t *testing.T) {
	m := modes([]genscen.Family{genscen.AmdahlMix, genscen.NearOverflow}, nil)[0]
	t.Run(m.name, func(t *testing.T) {
		r1, err := m.run(2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		r5, err := m.run(2, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		d1, d5 := r1.Digests(), r5.Digests()
		for name, want := range d1 {
			if d5[name] != want {
				t.Errorf("family %s: digest differs between 1 and 5 workers", name)
			}
		}
	})
}

// TestMetricsInvariantDigests is the observability non-perturbation
// gate at the harness level: instrumenting every layer either harness
// drives (portfolio engines, every DES and fleet run) must leave the
// per-family digests — canonical hashes of every schedule and event log
// produced — bit-identical to a bare run: the single-node harness at
// one worker and at several, the fleet harness once, since workers size
// nothing in a fleet run. The instrumented registry must also actually
// have observed the run and export cleanly.
func TestMetricsInvariantDigests(t *testing.T) {
	traffic := map[string][]string{
		"single-node": {"portfolio_batches_total", "des_simulations_total"},
		"fleet":       {"des_simulations_total"},
	}
	for _, m := range modes(
		[]genscen.Family{genscen.AmdahlMix, genscen.NearOverflow},
		[]genscen.FleetFamily{genscen.FleetAffinity, genscen.FleetBurst},
	) {
		t.Run(m.name, func(t *testing.T) {
			counts := []int{1, 5}
			if m.name == "fleet" {
				counts = counts[:1]
			}
			for _, workers := range counts {
				bare, err := m.run(2, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				reg := obs.NewRegistry()
				instrumented, err := m.run(2, workers, reg)
				if err != nil {
					t.Fatal(err)
				}
				db, di := bare.Digests(), instrumented.Digests()
				for name, want := range db {
					if di[name] != want {
						t.Errorf("workers=%d family %s: digest differs with metrics enabled", workers, name)
					}
				}
				if instrumented.ViolationCount() != bare.ViolationCount() {
					t.Errorf("workers=%d: violation count differs with metrics enabled", workers)
				}
				byName := map[string]float64{}
				for _, s := range reg.Snapshot() {
					byName[s.Name] += s.Value
				}
				for _, name := range traffic[m.name] {
					if byName[name] == 0 {
						t.Errorf("workers=%d: registry saw no %s: %v", workers, name, byName)
					}
				}
				var sb strings.Builder
				if err := reg.WriteProm(&sb); err != nil {
					t.Fatal(err)
				}
				if errs := obs.LintProm(strings.NewReader(sb.String())); len(errs) != 0 {
					t.Errorf("workers=%d: harness exposition fails lint: %v", workers, errs)
				}
			}
		})
	}
}

func TestMarkdownAndNDJSON(t *testing.T) {
	for _, m := range modes([]genscen.Family{genscen.SingleApp}, []genscen.FleetFamily{genscen.FleetUniform}) {
		t.Run(m.name, func(t *testing.T) {
			rep, err := m.run(1, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			var md bytes.Buffer
			if err := rep.Markdown(&md); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(md.String(), m.families[0]) || !strings.Contains(md.String(), "0 violation(s)") {
				t.Errorf("markdown missing expected content:\n%s", md.String())
			}

			var nd bytes.Buffer
			if err := rep.NDJSON(&nd); err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(&nd)
			types := map[string]int{}
			for sc.Scan() {
				var line map[string]any
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
				}
				types[line["type"].(string)]++
			}
			if types[m.familyLine] != 1 || types["summary"] != 1 {
				t.Errorf("NDJSON line types %v, want 1 %s + 1 summary", types, m.familyLine)
			}
		})
	}
}

func TestGoldenRoundTripAndCompare(t *testing.T) {
	for _, m := range modes([]genscen.Family{genscen.SingleApp}, []genscen.FleetFamily{genscen.FleetBurst}) {
		t.Run(m.name, func(t *testing.T) {
			rep, err := m.run(1, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), m.corpus)
			if err := SaveGolden(path, rep.Golden()); err != nil {
				t.Fatal(err)
			}
			gold, err := LoadGolden(path)
			if err != nil {
				t.Fatal(err)
			}
			if diffs := gold.Compare(rep.Golden()); len(diffs) != 0 {
				t.Errorf("round-tripped corpus mismatches its own report: %v", diffs)
			}

			// A corrupted digest must be reported.
			gold.Digests[m.families[0]] = strings.Repeat("0", 64)
			if diffs := gold.Compare(rep.Golden()); len(diffs) != 1 {
				t.Errorf("corrupted digest produced %d diffs, want 1", len(diffs))
			}

			// A config mismatch must be reported as incomparable.
			gold2, _ := LoadGolden(path)
			gold2.Seeds = 99
			diffs := gold2.Compare(rep.Golden())
			if len(diffs) != 1 || !strings.Contains(diffs[0], "computed under") {
				t.Errorf("config mismatch diffs: %v", diffs)
			}

			// Diffs come in family-name order, whatever the order the
			// digest maps iterate in.
			gold3, run := rep.Golden(), rep.Golden()
			gold3.Digests["absent"] = strings.Repeat("1", 64)
			want := []string{m.prefix + "family absent: in golden corpus but absent from report"}
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("extra-%d", i)
				run.Digests[name] = strings.Repeat("2", 64)
				want = append(want, m.prefix+"family "+name+": not in golden corpus (regenerate with -update)")
			}
			for i := 0; i < 100; i++ {
				if got := gold3.Compare(run); !reflect.DeepEqual(got, want) {
					t.Fatalf("call %d: diffs\n%q\nwant\n%q", i, got, want)
				}
			}

			if _, err := LoadGolden(filepath.Join(t.TempDir(), "absent.json")); err == nil {
				t.Error("loading an absent corpus succeeded")
			}

			// The committed corpus survives a load and save byte for byte.
			committed := filepath.Join("testdata", m.corpus)
			g, err := LoadGolden(committed)
			if err != nil {
				t.Fatal(err)
			}
			if err := SaveGolden(path, g); err != nil {
				t.Fatal(err)
			}
			wantBytes, err := os.ReadFile(committed)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, wantBytes) {
				t.Errorf("%s does not round-trip byte for byte (err %v):\n%s", committed, err, got)
			}
		})
	}
}

// TestViolationPlumbing: a synthetic violation must flow into the
// report, the count, the markdown and the NDJSON surfaces.
func TestViolationPlumbing(t *testing.T) {
	v := Violation{Family: "synthetic", Seed: 3, Check: "unit", Detail: "made up"}
	for _, tc := range []struct {
		name     string
		rep      harnessReport
		markdown []string
	}{
		{"single-node", &Report{Families: []FamilyResult{{
			Family: "synthetic", Scenarios: 1, Digest: strings.Repeat("ab", 32), Violations: []Violation{v},
		}}}, []string{"made up", "Reproduce"}},
		{"fleet", &FleetReport{Families: []FleetFamilyResult{{
			Family: "synthetic", Scenarios: 1, Digest: strings.Repeat("ab", 32), Violations: []Violation{v},
		}}}, []string{"made up", "## Violations"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := tc.rep
			if rep.ViolationCount() != 1 {
				t.Fatalf("violation count %d", rep.ViolationCount())
			}
			var md bytes.Buffer
			if err := rep.Markdown(&md); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.markdown {
				if !strings.Contains(md.String(), want) {
					t.Errorf("markdown does not surface the violation (%q):\n%s", want, md.String())
				}
			}
			var nd bytes.Buffer
			if err := rep.NDJSON(&nd); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(nd.String(), `"type":"violation"`) {
				t.Errorf("NDJSON does not surface the violation:\n%s", nd.String())
			}
		})
	}
}

// failWriter fails after n bytes, for exercising truncated-output
// error propagation.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errBroken
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errBroken
	}
	f.n -= len(p)
	return len(p), nil
}

var errBroken = errors.New("broken pipe")

func TestMarkdownPropagatesWriteErrors(t *testing.T) {
	for _, m := range modes([]genscen.Family{genscen.SingleApp}, []genscen.FleetFamily{genscen.FleetUniform}) {
		t.Run(m.name, func(t *testing.T) {
			rep, err := m.run(1, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Markdown(&failWriter{n: 10}); err == nil {
				t.Error("truncated markdown render returned nil error")
			}
			if err := rep.NDJSON(&failWriter{n: 10}); err == nil {
				t.Error("truncated NDJSON render returned nil error")
			}
		})
	}
}
