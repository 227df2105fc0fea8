package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// writeTemp stores content in a fresh temporary file and returns its
// path.
func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "input.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDefaultNPB(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-seq", "0.05"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"DominantMinRatio", "makespan:", "CG", "FT"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DominantMinRatio", "AllProcCache", "SharedCache", "LocalSearch"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list missing %q", want)
		}
	}
}

func TestRunUnknownHeuristic(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-heuristic", "Bogus"}, &out); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestRunWaysAndInt(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-seq", "0.05", "-ways", "20", "-int"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "CAT realization on 20 ways") {
		t.Fatalf("missing CAT section:\n%s", s)
	}
	if !strings.Contains(s, "whole-processor realization") {
		t.Fatalf("missing integer section:\n%s", s)
	}
}

func TestRunSimAndGantt(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-seq", "0.05", "-sim", "-gantt"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "DES cross-check") || !strings.Contains(s, "█") {
		t.Fatalf("missing sim/gantt output:\n%s", s)
	}
}

func TestRunLocalSearch(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-seq", "0.05", "-localsearch"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "local search") {
		t.Fatal("local search message missing")
	}
}

func TestRunJSONOutputAndCustomApps(t *testing.T) {
	appsPath := writeTemp(t, `[
		{"name": "a", "work": 1e10, "seq": 0.05, "freq": 0.5, "missRate": 1e-3, "refCache": 4e7},
		{"name": "b", "work": 2e10, "seq": 0.02, "freq": 0.7, "missRate": 5e-3, "refCache": 4e7}
	]`)
	jsonPath := filepath.Join(t.TempDir(), "sched.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-apps", appsPath, "-json", jsonPath}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"heuristic": "DominantMinRatio"`, `"app": "a"`, `"app": "b"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("schedule JSON missing %q:\n%s", want, raw)
		}
	}
}

func TestRunJSONToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-seq", "0.05", "-json", "-"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"assignments"`) {
		t.Fatal("JSON not written to stdout")
	}
}

func TestRunBadAppsFile(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-apps", "/nonexistent.json"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run(context.Background(), []string{"-apps", writeTemp(t, "{not json")}, &out); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-nope"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunPortfolio(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-portfolio", "-workers", "4", "-seq", "0.05", "-ways", "20"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"12 heuristics raced", "rank", "vs best", "makespan:", "CAT realization on 20 ways"} {
		if !strings.Contains(s, want) {
			t.Fatalf("portfolio output missing %q:\n%s", want, s)
		}
	}
	// AllProcCache can never beat the co-scheduling policies on NPB, so
	// it must not be the heuristic the downstream sections ran with.
	if strings.Contains(s, "heuristic: AllProcCache") {
		t.Fatalf("portfolio picked the sequential baseline as best:\n%s", s)
	}
}

func TestRunBatch(t *testing.T) {
	batchPath := writeTemp(t, `[
		{"apps": [
			{"name": "a", "work": 1e10, "seq": 0.05, "freq": 0.5, "missRate": 1e-3, "refCache": 4e7},
			{"name": "b", "work": 2e10, "seq": 0.02, "freq": 0.7, "missRate": 5e-3, "refCache": 4e7}
		], "heuristics": ["DominantMinRatio", "Fair"], "seed": 7},
		{"apps": [
			{"name": "a", "work": 1e10, "seq": 0.05, "freq": 0.5, "missRate": 1e-3, "refCache": 4e7},
			{"name": "b", "work": 2e10, "seq": 0.02, "freq": 0.7, "missRate": 5e-3, "refCache": 4e7}
		], "heuristics": ["DominantMinRatio", "Fair"], "seed": 8},
		{"platform": {"processors": -1}, "apps": []}
	]`)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-batch", batchPath, "-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	reports := decodeReports(t, out.String())
	if len(reports) != 3 {
		t.Fatalf("%d reports for 3 scenarios", len(reports))
	}
	if reports[0].Best != "DominantMinRatio" || len(reports[0].Results) != 2 {
		t.Fatalf("unexpected first report: %+v", reports[0])
	}
	// Scenarios 1 and 2 differ only in seed; their deterministic
	// heuristics must agree, and exactly one evaluation per heuristic
	// must have come from the memoization cache.
	fromCache := 0
	for hi := range reports[0].Results {
		if reports[0].Results[hi].Makespan != reports[1].Results[hi].Makespan {
			t.Fatalf("deterministic heuristic diverged across identical scenarios")
		}
		for _, rep := range reports[:2] {
			if rep.Results[hi].FromCache {
				fromCache++
			}
		}
	}
	if fromCache != 2 {
		t.Fatalf("%d cached evaluations, want 2 (one per heuristic)", fromCache)
	}
	if reports[2].Error == "" {
		t.Fatal("invalid scenario accepted")
	}
}

// TestBatchLineIsEvaluateBody: with no cache hit, a -batch report line
// is the /v1/evaluate response for the same scenario.
func TestBatchLineIsEvaluateBody(t *testing.T) {
	scenario := `{"platform": {"processors": 128, "cacheSize": 16e9, "ls": 0.17, "ll": 1, "alpha": 0.5},
		"apps": [
			{"name": "a", "work": 1e10, "seq": 0.05, "freq": 0.5, "missRate": 1e-3, "refCache": 4e7},
			{"name": "b", "work": 2e10, "seq": 0.02, "freq": 0.7, "missRate": 5e-3, "refCache": 4e7}
		], "heuristics": ["DominantMinRatio", "Fair", "DominantRandom"], "seed": 7}`
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-batch", writeTemp(t, scenario)}, &out); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	serve.New(serve.Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(scenario)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/evaluate: %d %s", rec.Code, rec.Body)
	}
	if out.String() != rec.Body.String() {
		t.Errorf("-batch line differs from the /v1/evaluate body:\n got %s\nwant %s", out.String(), rec.Body.String())
	}
}

func TestRunPortfolioFlagConflicts(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-portfolio", "-localsearch"}, &out); err == nil {
		t.Fatal("-portfolio -localsearch combination accepted")
	}
	if err := run(context.Background(), []string{"-portfolio", "-heuristic", "Bogus"}, &out); err == nil {
		t.Fatal("-portfolio with unknown -heuristic accepted")
	}
}

// decodeReports parses -batch NDJSON output: one report per line.
func decodeReports(t *testing.T, out string) []serve.ReportWire {
	t.Helper()
	var reports []serve.ReportWire
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		var rep serve.ReportWire
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			t.Fatalf("batch output line %d is not JSON: %v\n%s", i, err, line)
		}
		reports = append(reports, rep)
	}
	return reports
}

// TestRunBatchNDJSONInput: a bare NDJSON stream of scenario objects is
// accepted alongside the array form, and reports stream in input order.
func TestRunBatchNDJSONInput(t *testing.T) {
	batchPath := writeTemp(t, `{"apps": [{"name": "a", "work": 1e10, "seq": 0.05, "freq": 0.5, "missRate": 1e-3, "refCache": 4e7}], "heuristics": ["DominantMinRatio"]}
{"apps": [{"name": "b", "work": 2e10, "seq": 0.02, "freq": 0.7, "missRate": 5e-3, "refCache": 4e7}], "heuristics": ["Fair"]}
`)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-batch", batchPath}, &out); err != nil {
		t.Fatal(err)
	}
	reports := decodeReports(t, out.String())
	if len(reports) != 2 {
		t.Fatalf("%d reports for 2 scenarios", len(reports))
	}
	if reports[0].Best != "DominantMinRatio" || reports[1].Best != "Fair" {
		t.Fatalf("reports out of order: %q then %q", reports[0].Best, reports[1].Best)
	}
}

// failWriter errors after its first successful write, standing in for
// a consumer that goes away mid-stream.
type failWriter struct{ writes int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, fmt.Errorf("pipe closed")
	}
	return len(p), nil
}

// TestRunBatchOutputFailure: a dying output writer must surface as an
// error promptly — the decoder stops emitting instead of evaluating
// the rest of the batch into the void.
func TestRunBatchOutputFailure(t *testing.T) {
	one := `{"apps": [{"name": "a", "work": 1e10, "seq": 0.05, "freq": 0.5, "missRate": 1e-3, "refCache": 4e7}], "heuristics": ["Fair"]}`
	batchPath := writeTemp(t, "["+one+","+one+","+one+","+one+","+one+"]")
	w := &failWriter{}
	if err := run(context.Background(), []string{"-batch", batchPath, "-workers", "1"}, w); err == nil {
		t.Fatal("failing writer not reported")
	}
}

func TestRunBatchBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-batch", "/nonexistent.json"}, &out); err == nil {
		t.Fatal("missing batch file accepted")
	}
	if err := run(context.Background(), []string{"-batch", writeTemp(t, `[{"heuristics": ["Bogus"], "apps": []}]`)}, &out); err == nil {
		t.Fatal("unknown heuristic in batch accepted")
	}
	trailing := writeTemp(t, `[{"apps": [{"name": "a", "work": 1e10, "seq": 0.05, "freq": 0.5, "missRate": 1e-3, "refCache": 4e7}]}] {"oops": 1}`)
	if err := run(context.Background(), []string{"-batch", trailing}, &out); err == nil {
		t.Fatal("trailing data after the scenario array accepted")
	}
}
