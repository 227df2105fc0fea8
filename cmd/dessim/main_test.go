package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// runMain executes the CLI and returns stdout/stderr.
func runMain(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatalf("dessim %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String()
}

// writeSpec stores a scenario spec in a temporary file for -scenario.
func writeSpec(t *testing.T, spec string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEndToEndScenarioJSON: scenario JSON in, NDJSON events + summary
// out.
func TestEndToEndScenarioJSON(t *testing.T) {
	scenario := `{
		"arrivals": {"process": "poisson", "rate": 2e-9, "n": 8},
		"policy": "DominantMinRatio",
		"maxResident": 3,
		"seed": 11
	}`
	out, _ := runMain(t, "-scenario", writeSpec(t, scenario))
	// The summary line is the /v1/simulate body for the same spec,
	// tagged with its kind.
	if body := serveBody(t, "/v1/simulate", scenario); !strings.HasSuffix(out, "\n"+`{"kind":"summary",`+body[1:]) {
		t.Errorf("summary line differs from the /v1/simulate body %s", body)
	}

	sc := bufio.NewScanner(strings.NewReader(out))
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", len(lines), err, sc.Text())
		}
		lines = append(lines, m)
	}
	if len(lines) < 2 {
		t.Fatalf("got %d NDJSON lines, want events + summary", len(lines))
	}
	last := lines[len(lines)-1]
	if last["kind"] != "summary" {
		t.Fatalf("last line kind %v, want summary", last["kind"])
	}
	if last["jobs"].(float64) != 8 {
		t.Errorf("summary jobs %v, want 8", last["jobs"])
	}
	if last["policy"] != "heuristic:DominantMinRatio" {
		t.Errorf("summary policy %v", last["policy"])
	}
	var finishes int
	for _, m := range lines[:len(lines)-1] {
		if m["kind"] == "finish" {
			finishes++
		}
	}
	if finishes != 8 {
		t.Errorf("event stream has %d finishes, want 8", finishes)
	}
}

// TestFlagsOverrideScenario: -arrivals/-policy/-seed work without a
// scenario file and override its fields.
func TestFlagsOverrideScenario(t *testing.T) {
	out, _ := runMain(t, "-arrivals", "batch:interval=0,size=6,n=6", "-policy", "norepartition:DominantMinRatio", "-events=false")
	var sum map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &sum); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, out)
	}
	if sum["kind"] != "summary" || sum["arrivals"] != "replay" && sum["arrivals"] != "batch" {
		t.Fatalf("unexpected summary: %v", sum)
	}
	if sum["repartitions"].(float64) != 1 {
		t.Errorf("t=0 batch under norepartition: %v repartitions, want 1", sum["repartitions"])
	}
	if sum["meanWait"].(float64) != 0 {
		t.Errorf("t=0 batch: mean wait %v, want 0", sum["meanWait"])
	}
}

// TestDeterministicOutput: same seed, same flags -> byte-identical
// NDJSON across runs.
func TestDeterministicOutput(t *testing.T) {
	args := []string{"-arrivals", "poisson:rate=1e-9,n=12", "-policy", "portfolio", "-seed", "42"}
	out1, _ := runMain(t, args...)
	out2, _ := runMain(t, args...)
	if out1 != out2 {
		t.Fatalf("output differs between runs:\n%s\nvs\n%s", out1, out2)
	}
}

// TestGanttRendering: -gantt draws a wait/run timeline on stderr.
func TestGanttRendering(t *testing.T) {
	_, errOut := runMain(t, "-arrivals", "poisson:rate=1e-9,n=4", "-gantt", "-events=false")
	if !strings.Contains(errOut, "█") {
		t.Errorf("no timeline bars on stderr:\n%s", errOut)
	}
	if !strings.Contains(errOut, "wait") {
		t.Errorf("missing timeline header:\n%s", errOut)
	}
}

// TestObservabilityOutputs: -json appends a metrics line, -metrics
// writes a lint-clean Prometheus exposition, -trace writes an NDJSON
// span log, and none of it perturbs the event stream.
func TestObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	promPath := filepath.Join(dir, "m.prom")
	tracePath := filepath.Join(dir, "t.ndjson")
	args := []string{"-arrivals", "poisson:rate=2e-9,n=8", "-policy", "DominantMinRatio", "-maxresident", "3", "-seed", "11"}

	bare, _ := runMain(t, args...)
	out, _ := runMain(t, append(args, "-json", "-metrics", promPath, "-trace", tracePath)...)

	lines := strings.Split(strings.TrimSpace(out), "\n")
	var metricsLine map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &metricsLine); err != nil {
		t.Fatalf("metrics line not JSON: %v", err)
	}
	if metricsLine["kind"] != "metrics" {
		t.Fatalf("last line kind %v, want metrics", metricsLine["kind"])
	}
	samples := metricsLine["samples"].([]any)
	if len(samples) == 0 {
		t.Error("-json metrics line has no samples")
	}
	// Stripping the metrics line must recover the bare output exactly:
	// instrumentation records, never perturbs.
	if got := strings.Join(lines[:len(lines)-1], "\n") + "\n"; got != bare {
		t.Error("-json changed the event/summary stream")
	}

	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.LintProm(bytes.NewReader(prom)); len(errs) != 0 {
		t.Errorf("-metrics exposition fails lint: %v", errs)
	}
	if !strings.Contains(string(prom), "des_events_total") {
		t.Error("-metrics exposition missing des_events_total")
	}
	// Policies race outside any portfolio engine and selector, so none
	// of their series (portfolio_batches_total, selector_regret, ...),
	// which no run could move, is exported.
	for _, family := range []string{"portfolio_", "selector_"} {
		for _, s := range samples {
			if name := s.(map[string]any)["name"].(string); strings.HasPrefix(name, family) {
				t.Errorf("-json metrics line carries %s", name)
			}
		}
		if strings.Contains(string(prom), family) {
			t.Errorf("-metrics exposition carries %s* series", family)
		}
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tl := strings.Split(strings.TrimSpace(string(trace)), "\n")
	if len(tl) < 2 {
		t.Fatalf("trace has %d lines, want spans + trailer", len(tl))
	}
	var trailer map[string]any
	if err := json.Unmarshal([]byte(tl[len(tl)-1]), &trailer); err != nil {
		t.Fatal(err)
	}
	if trailer["kind"] != "trace-summary" || trailer["events"].(float64) == 0 {
		t.Errorf("unexpected trace trailer: %v", trailer)
	}
}

// drainProbe is an output writer that, on its first write, checks
// whether the -debug-addr listener is still accepting connections.
// Drain-then-flush ordering requires the listener to be gone by then:
// output used to be written first, leaving a window where a scrape of
// the final state raced process exit.
type drainProbe struct {
	bytes.Buffer
	addr   func() string
	probed bool
	open   bool
}

func (p *drainProbe) Write(b []byte) (int, error) {
	if !p.probed && p.addr() != "" {
		p.probed = true
		conn, err := net.DialTimeout("tcp", p.addr(), time.Second)
		if err == nil {
			conn.Close()
			p.open = true
		}
	}
	return p.Buffer.Write(b)
}

// TestDebugServerDrainedBeforeFlush pins the drain-then-flush ordering:
// by the time the first event/summary byte is emitted, the debug
// listener has been drained and closed.
func TestDebugServerDrainedBeforeFlush(t *testing.T) {
	var errOut bytes.Buffer
	out := &drainProbe{addr: func() string {
		_, after, found := strings.Cut(errOut.String(), "debug listener on http://")
		if !found {
			return ""
		}
		return strings.TrimSpace(strings.SplitN(after, "\n", 2)[0])
	}}
	args := []string{"-arrivals", "poisson:rate=2e-9,n=4", "-policy", "DominantMinRatio", "-seed", "3", "-debug-addr", "127.0.0.1:0"}
	if err := run(context.Background(), args, out, &errOut); err != nil {
		t.Fatalf("dessim %s: %v", strings.Join(args, " "), err)
	}
	if !out.probed {
		t.Fatal("probe never fired: no output or no listener line")
	}
	if out.open {
		t.Error("debug listener still accepting connections while final output was being flushed")
	}
	if !strings.Contains(out.String(), `"kind":"summary"`) {
		t.Errorf("run produced no summary:\n%s", out.String())
	}
}

// TestProfileFlagsWriteFiles: -cpuprofile/-memprofile produce non-empty
// pprof files.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb")
	runMain(t, "-arrivals", "poisson:rate=2e-9,n=4", "-events=false", "-cpuprofile", cpu, "-memprofile", mem)
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestBadScenarioRejected: invalid values surface as errors, not NaN.
func TestBadScenarioRejected(t *testing.T) {
	for _, bad := range []string{
		`{"arrivals": {"process": "poisson", "rate": -1, "n": 4}}`,
		`{"arrivals": {"process": "poisson", "rate": 1e999, "n": 4}}`,
		`{"arrivals": {"process": "warp"}}`,
		`{"arrivals": {"process": "replay", "replay": [{"time": 1}, {"time": 0}]}}`,
		`{"duration": -5, "arrivals": {"process": "poisson", "rate": 1, "n": 1}}`,
		`{"typo": true, "arrivals": {"process": "poisson", "rate": 1, "n": 1}}`,
	} {
		var out, errOut bytes.Buffer
		if err := run(context.Background(), []string{"-scenario", writeSpec(t, bad)}, &out, &errOut); err == nil {
			t.Errorf("accepted invalid scenario: %s", bad)
		}
	}
}

// serveBody posts body to the coschedd handler at path and returns the
// response body.
func serveBody(t *testing.T, path, body string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	serve.New(serve.Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestNodeLinesAreSimulateFleetNodes: each node line of a fleet run is
// the matching nodes[i] of the /v1/simulate-fleet response, tagged with
// its kind.
func TestNodeLinesAreSimulateFleetNodes(t *testing.T) {
	spec := `{"nodes": [{}, {"name": "small", "platform": {"processors": 64, "cacheSize": 8e9,
		"ls": 0.17, "ll": 1, "alpha": 0.5}, "policy": "portfolio", "maxResident": 4}],
		"routing": "cache-affinity", "arrivals": {"process": "poisson", "rate": 4e-9, "n": 32}, "seed": 5}`
	out, _ := runMain(t, "-fleet", "-scenario", writeSpec(t, spec), "-events=false")
	var resp struct {
		Nodes []json.RawMessage `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(serveBody(t, "/v1/simulate-fleet", spec)), &resp); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(resp.Nodes)+1 || len(resp.Nodes) != 2 {
		t.Fatalf("%d lines for %d nodes plus the fleet summary:\n%s", len(lines), len(resp.Nodes), out)
	}
	for i, n := range resp.Nodes {
		if want := `{"kind":"node",` + string(n[1:]); lines[i] != want {
			t.Errorf("node line %d differs from the /v1/simulate-fleet body:\n got %s\nwant %s", i, lines[i], want)
		}
	}
}

// TestSelectorFlag: -selector backs a learned-selection policy in both
// modes and is rejected where no policy can consult it. An empty ledger
// predicts nothing, so every selecting node falls back to the full race.
func TestSelectorFlag(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.json")
	if err := os.WriteFile(ledger, []byte(`{"schema":"repro-ledger/v1","buckets":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	arrivals := "poisson:rate=4e-9,n=8"

	// Single node: -selector implies portfolio:selector unless -policy
	// names a policy without a learned-selection mode.
	out, _ := runMain(t, "-selector", ledger, "-arrivals", arrivals, "-events=false")
	if !strings.HasPrefix(out, `{"kind":"summary","policy":"portfolio:selector",`) {
		t.Errorf("-selector ran %s, want the portfolio:selector policy", out)
	}

	// Fleet: the spec's node policies decide; a ledger no node consults
	// is rejected.
	spec := writeSpec(t, `{"nodes": [{}, {"policy": "portfolio:selector", "maxResident": 4}],
		"arrivals": {"process": "poisson", "rate": 4e-9, "n": 8}, "seed": 5}`)
	out, _ = runMain(t, "-fleet", "-scenario", spec, "-selector", ledger)
	if plain, _ := runMain(t, "-fleet", "-scenario", spec); out != plain {
		t.Errorf("an empty ledger changed the fleet run:\n got %s\nwant %s", out, plain)
	}

	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-selector", ledger, "-policy", "DominantMinRatio", "-arrivals", arrivals}, "has no learned-selection mode"},
		{[]string{"-fleet", "-selector", ledger, "-arrivals", arrivals}, "no fleet node has a learned-selection policy"},
		{[]string{"-selector", ledger + ".missing", "-arrivals", arrivals}, "ledger.json.missing"},
		{[]string{"-fleet", "-scenario", spec, "-selector", ledger + ".missing"}, "ledger.json.missing"},
	} {
		var out, errOut bytes.Buffer
		err := run(context.Background(), c.args, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("dessim %s: error %v, want one containing %q", strings.Join(c.args, " "), err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("dessim %s: wrote %q before failing", strings.Join(c.args, " "), out.String())
		}
	}
}
