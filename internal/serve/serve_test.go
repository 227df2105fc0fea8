package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/internal/obs"
	"repro/internal/selector"
)

// twoApps is a small scenario body reused across the suite. RandomPart
// is seed-sensitive, so tenant-seed derivation is visible in the
// response bytes.
const twoApps = `{"apps": [
	{"name": "CG", "work": 5.7e10, "seq": 0.05, "freq": 0.535, "missRate": 6.59e-4, "refCache": 4e7},
	{"name": "FT", "work": 7.9e10, "seq": 0.02, "freq": 0.590, "missRate": 3.26e-4, "refCache": 4e7},
	{"name": "LU", "work": 9.3e10, "seq": 0.01, "freq": 0.525, "missRate": 4.85e-4, "refCache": 4e7}
]}`

func randomPartBody(t *testing.T) string {
	t.Helper()
	var sj ScenarioWire
	if err := json.Unmarshal([]byte(twoApps), &sj); err != nil {
		t.Fatal(err)
	}
	sj.Heuristics = []string{"RandomPart"}
	b, err := json.Marshal(sj)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, tenant, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestScheduleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/schedule", "", twoApps)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sw ScheduleWire
	if err := json.Unmarshal([]byte(body), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Heuristic == "" || sw.Makespan <= 0 || len(sw.Assignments) != 3 {
		t.Fatalf("implausible schedule: %+v", sw)
	}
	var procs float64
	for _, a := range sw.Assignments {
		procs += a.Processors
	}
	if procs <= 0 {
		t.Errorf("no processors assigned: %+v", sw.Assignments)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/evaluate", "", twoApps)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rw ReportWire
	if err := json.Unmarshal([]byte(body), &rw); err != nil {
		t.Fatal(err)
	}
	if rw.Best == "" || len(rw.Results) < 10 {
		t.Fatalf("implausible report: %+v", rw)
	}
	if strings.Contains(body, "fromCache") {
		t.Error("service response leaks cache provenance")
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := `{"arrivals": {"process": "poisson", "rate": 2e-9, "n": 6}, "policy": "DominantMinRatio", "maxResident": 3, "seed": 11}`
	resp, body := post(t, ts.URL+"/v1/simulate", "", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sw SummaryWire
	if err := json.Unmarshal([]byte(body), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Jobs != 6 || sw.Makespan <= 0 || sw.Policy == "" {
		t.Fatalf("implausible summary: %+v", sw)
	}
}

// TestSimulateFleetEndpoint drives a two-node fleet through the fleet
// endpoint and checks the aggregate is consistent with the per-node
// breakdown, and that identical (tenant, body) pairs get bit-identical
// responses.
func TestSimulateFleetEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := `{"nodes": [{"name": "a"}, {"name": "b", "policy": "Fair"}],
		"routing": "power-of-two-choices",
		"arrivals": {"process": "poisson", "rate": 2e-9, "n": 6}, "seed": 11}`
	resp, body := post(t, ts.URL+"/v1/simulate-fleet", "", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var fw FleetSummaryWire
	if err := json.Unmarshal([]byte(body), &fw); err != nil {
		t.Fatal(err)
	}
	if fw.Routing != "power-of-two-choices" || fw.Jobs != 6 || fw.Makespan <= 0 {
		t.Fatalf("implausible fleet summary: %+v", fw)
	}
	if len(fw.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2: %+v", len(fw.Nodes), fw)
	}
	routed := 0
	for _, n := range fw.Nodes {
		routed += n.Jobs
	}
	if routed != fw.Jobs {
		t.Errorf("per-node jobs sum to %d, fleet reports %d", routed, fw.Jobs)
	}

	// Same tenant, same body: bit-identical bytes. The spec above pins
	// its seed, so strip it and let the tenant header drive the draw.
	open := strings.Replace(spec, `, "seed": 11`, "", 1)
	_, first := post(t, ts.URL+"/v1/simulate-fleet", "acme", open)
	if _, again := post(t, ts.URL+"/v1/simulate-fleet", "acme", open); again != first {
		t.Errorf("tenant fleet response drifted:\n%s\nvs\n%s", first, again)
	}
}

// TestOnlineSimulationsSkipMemo: simulate and simulate-fleet requests
// race their portfolio policies on the request's goroutine, outside
// the client's engine, so a cache-on server keeps its engine counters
// and portfolio_cache_entries at 0 through them, while /v1/schedule
// still fills the memo and hits it on a repeat request.
func TestOnlineSimulationsSkipMemo(t *testing.T) {
	reg := obs.NewRegistry()
	client := repro.NewClient(repro.WithWorkers(2), repro.WithMetrics(reg))
	_, ts := newTestServer(t, Config{Client: client, Registry: reg})
	for _, c := range []struct{ path, body string }{
		{"/v1/simulate-fleet", `{"nodes": [{"policy": "portfolio", "maxResident": 3}, {"policy": "portfolio"}],
			"arrivals": {"process": "poisson", "rate": 2e-9, "n": 8}, "seed": 11}`},
		{"/v1/simulate", `{"arrivals": {"process": "poisson", "rate": 2e-9, "n": 8},
			"policy": "portfolio", "maxResident": 3, "seed": 11}`},
	} {
		if resp, body := post(t, ts.URL+c.path, "", c.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, resp.StatusCode, body)
		}
	}
	if n := metricValue(t, ts.URL, "des_replan_fullsolve_total"); n == 0 {
		t.Fatal("the simulations raced no portfolio")
	}
	for _, name := range []string{"portfolio_batches_total", "portfolio_evals_total", "portfolio_cache_entries"} {
		if n := metricValue(t, ts.URL, name); n != 0 {
			t.Errorf("online simulations left %s at %v, want 0", name, n)
		}
	}

	if resp, body := post(t, ts.URL+"/v1/schedule", "", twoApps); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: status %d: %s", resp.StatusCode, body)
	}
	if n := metricValue(t, ts.URL, "portfolio_cache_entries"); n == 0 {
		t.Error("/v1/schedule left the memo empty")
	}
	hits := metricValue(t, ts.URL, "portfolio_cache_hits_total")
	if resp, body := post(t, ts.URL+"/v1/schedule", "", twoApps); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat schedule: status %d: %s", resp.StatusCode, body)
	}
	if again := metricValue(t, ts.URL, "portfolio_cache_hits_total"); again <= hits {
		t.Errorf("repeat /v1/schedule missed the memo: hits %v -> %v", hits, again)
	}
}

// metricValue scrapes /metrics and returns the value of the unlabeled
// series name.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no series %s", name)
	return 0
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	type badCase struct {
		path, body string
		status     int
	}
	cases := []badCase{
		{"/v1/schedule", "{not json", http.StatusBadRequest},
		{"/v1/schedule", `{"apps": [], "heuristics": ["Bogus"]}`, http.StatusBadRequest},
		{"/v1/schedule", `{"apps": [{"name": "X", "work": -1}]}`, http.StatusBadRequest},
		{"/v1/evaluate", `{"apps": [{"name": "X", "work": -1}]}`, http.StatusBadRequest},
		{"/v1/simulate", `{"arrivals": {"process": "warp"}}`, http.StatusBadRequest},
		{"/v1/simulate-fleet", `{"routing": "warp"}`, http.StatusBadRequest},
		{"/v1/simulate-fleet", `{"nodes": [], "bogus": 1}`, http.StatusBadRequest},
		{"/v1/simulate-fleet", `{"nodes": [{"policy": "bogus"}], "arrivals": {"process": "poisson", "rate": 2e-9, "n": 4}}`, http.StatusBadRequest},
		{"/v1/simulate-fleet", `{"nodes": [{"policy": "AllProcCache"}], "arrivals": {"process": "poisson", "rate": 2e-9, "n": 4}}`, http.StatusBadRequest},
	}
	// A single-document endpoint takes its body whole: a second document
	// or trailing garbage is rejected, a trailing newline is not.
	for path, doc := range singleDocBodies {
		cases = append(cases,
			badCase{path, doc + doc, http.StatusBadRequest},
			badCase{path, doc + "garbage", http.StatusBadRequest})
		if resp, body := post(t, ts.URL+path, "", doc+"\n"); resp.StatusCode != http.StatusOK {
			t.Errorf("%s with a trailing newline: status %d (%s)", path, resp.StatusCode, body)
		}
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+tc.path, "", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %q: status %d want %d (%s)", tc.path, tc.body, resp.StatusCode, tc.status, body)
		}
		var ew errorWire
		if err := json.Unmarshal([]byte(body), &ew); err != nil || ew.Error == "" {
			t.Errorf("%s: error body not {error: ...}: %q", tc.path, body)
		}
	}
	// Wrong method falls through to the debug surface, which has no
	// such path: the API is POST-only.
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/schedule = %d, want 404", resp.StatusCode)
	}
}

// singleDocBodies maps each single-document endpoint to a valid body.
var singleDocBodies = map[string]string{
	"/v1/schedule":       twoApps,
	"/v1/evaluate":       twoApps,
	"/v1/simulate":       `{"arrivals": {"process": "poisson", "rate": 2e-9, "n": 4}}`,
	"/v1/simulate-fleet": `{"nodes": [{}, {}], "arrivals": {"process": "poisson", "rate": 2e-9, "n": 4}}`,
}

// TestAdmission429 fills every inflight slot, then checks the next
// request is shed with 429 + Retry-After instead of queueing, and that
// the slot accounting recovers.
func TestAdmission429(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 2, RetryAfter: 3 * time.Second})
	// Occupy both slots directly — deterministic, no racing handlers.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}

	resp, body := post(t, ts.URL+"/v1/schedule", "", twoApps)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	if srv.Shed() != 1 {
		t.Errorf("shed = %d, want 1", srv.Shed())
	}

	// Freeing the slots readmits.
	<-srv.sem
	<-srv.sem
	resp, body = post(t, ts.URL+"/v1/schedule", "", twoApps)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status %d: %s", resp.StatusCode, body)
	}
	if srv.Admitted() != 1 {
		t.Errorf("admitted = %d, want 1", srv.Admitted())
	}
	// healthz and metrics bypass admission even when saturated.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	for _, p := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s under saturation = %d, want 200", p, resp.StatusCode)
		}
	}
}

// TestEvaluateBatchStreams drives both accepted input forms through
// the batch endpoint and checks one report line per scenario, in input
// order. The array and NDJSON forms must produce identical output.
func TestEvaluateBatchStreams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var sj ScenarioWire
	if err := json.Unmarshal([]byte(twoApps), &sj); err != nil {
		t.Fatal(err)
	}
	const n = 5
	var ndjson, array strings.Builder
	array.WriteString("[")
	for i := 0; i < n; i++ {
		sj.Heuristics = []string{"DominantMinRatio", "Fair"}
		seed := uint64(i)
		sj.Seed = &seed
		b, err := json.Marshal(sj)
		if err != nil {
			t.Fatal(err)
		}
		ndjson.Write(b)
		ndjson.WriteString("\n")
		if i > 0 {
			array.WriteString(",")
		}
		array.Write(b)
	}
	array.WriteString("]")

	var outputs []string
	for form, in := range map[string]string{"ndjson": ndjson.String(), "array": array.String()} {
		resp, body := post(t, ts.URL+"/v1/evaluate-batch", "", in)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", form, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("%s: Content-Type = %q", form, ct)
		}
		lines := strings.Split(strings.TrimSpace(body), "\n")
		if len(lines) != n {
			t.Fatalf("%s: got %d report lines, want %d:\n%s", form, len(lines), n, body)
		}
		for i, line := range lines {
			var rw ReportWire
			if err := json.Unmarshal([]byte(line), &rw); err != nil {
				t.Fatalf("%s line %d: %v", form, i, err)
			}
			if rw.Error != "" || len(rw.Results) != 2 {
				t.Errorf("%s line %d: %+v", form, i, rw)
			}
		}
		outputs = append(outputs, body)
	}
	if outputs[0] != outputs[1] {
		t.Error("array and NDJSON forms produced different report streams")
	}

	// A decode error mid-stream appends a terminal error line after the
	// reports already streamed.
	in := ndjson.String() + "{broken\n"
	resp, body := post(t, ts.URL+"/v1/evaluate-batch", "", in)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-stream error status %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var last ReportWire
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Error == "" {
		t.Errorf("terminal line carries no error: %q", lines[len(lines)-1])
	}
}

// TestTenantSeedDeterminism: same tenant + same body ⇒ bit-identical
// response bytes, across repeats and cache states; an explicit seed in
// the body overrides the tenant derivation entirely.
func TestTenantSeedDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{BaseSeed: 42})
	body := randomPartBody(t)

	_, first := post(t, ts.URL+"/v1/evaluate", "acme", body)
	for i := 0; i < 3; i++ {
		if _, again := post(t, ts.URL+"/v1/evaluate", "acme", body); again != first {
			t.Fatalf("tenant acme response drifted on repeat %d:\n%s\nvs\n%s", i, first, again)
		}
	}

	// TenantSeed is an injective-enough mix: distinct tenants get
	// distinct seeds (exact equality of responses is then up to the
	// heuristics, which we do not assert).
	if TenantSeed(42, "acme") == TenantSeed(42, "globex") {
		t.Error("distinct tenants derived the same seed")
	}
	if TenantSeed(42, "") != 42 {
		t.Error("empty tenant must keep the base seed")
	}

	// An explicit body seed wins over the tenant header: two tenants
	// pinning the same seed see identical bytes.
	pinned := strings.Replace(body, `{"apps"`, `{"seed": 7, "apps"`, 1)
	_, a := post(t, ts.URL+"/v1/evaluate", "acme", pinned)
	_, b := post(t, ts.URL+"/v1/evaluate", "globex", pinned)
	if a != b {
		t.Errorf("explicit seed did not override tenant derivation:\n%s\nvs\n%s", a, b)
	}
}

// TestDrainCompletesInFlight boots the server on the shared
// obs.ServeHandler lifecycle (exactly how coschedd mounts it), parks a
// batch request mid-stream, drains, and checks the request completes
// with every report intact — the SIGTERM contract: stop accepting,
// finish in-flight.
func TestDrainCompletesInFlight(t *testing.T) {
	s := New(Config{})
	ls, err := obs.ServeHandler("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	type result struct {
		lines []string
		err   error
	}
	got := make(chan result, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, "http://"+ls.Addr()+"/v1/evaluate-batch", pr)
		if err != nil {
			got <- result{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		got <- result{lines: lines, err: sc.Err()}
	}()

	scenario := strings.ReplaceAll(twoApps, "\n", " ") + "\n"
	if _, err := io.WriteString(pw, scenario); err != nil {
		t.Fatal(err)
	}
	// The write can return while the connection still waits in the
	// listener's accept queue, where a drain would drop it. Wait until
	// the server has admitted the request.
	for deadline := time.Now().Add(10 * time.Second); s.Admitted() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("request not admitted: %d admitted", s.Admitted())
		}
	}
	// The request is now in flight (body held open). Start the drain;
	// it must wait for us, not abort the stream.
	closed := make(chan error, 1)
	go func() { closed <- ls.CloseTimeout(10 * time.Second) }()
	select {
	case err := <-closed:
		t.Fatalf("drain returned (%v) with the batch still streaming", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Feed a second scenario and finish the request mid-drain.
	if _, err := io.WriteString(pw, scenario); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	if err := <-closed; err != nil {
		t.Errorf("drain = %v", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight batch aborted by drain: %v", r.err)
	}
	if len(r.lines) != 2 {
		t.Fatalf("lost report lines across the drain: got %d, want 2:\n%s", len(r.lines), strings.Join(r.lines, "\n"))
	}
	for i, line := range r.lines {
		var rw ReportWire
		if err := json.Unmarshal([]byte(line), &rw); err != nil || rw.Error != "" {
			t.Errorf("line %d after drain: %q (%v)", i, line, err)
		}
	}
	// And the listener is gone.
	if _, err := http.Get("http://" + ls.Addr() + "/healthz"); err == nil {
		t.Error("drained listener accepted a new request")
	}
}

// TestMetricsEndpointLints scrapes a live server — after traffic, with
// an exotic label value registered — and runs the exposition through
// LintProm: the %q-escaping regression would fail exactly here.
func TestMetricsEndpointLints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.CounterVec("exotic_serve_total", "lint must survive this", "k").
		With("tab\there \"q\" back\\slash\nnl").Inc()
	_, ts := newTestServer(t, Config{Registry: reg})

	if resp, body := post(t, ts.URL+"/v1/schedule", "t1", twoApps); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(body)
	if errs := obs.LintProm(strings.NewReader(exposition)); len(errs) != 0 {
		t.Errorf("live exposition fails lint: %v\n%s", errs, exposition)
	}
	for _, want := range []string{
		"coschedd_inflight 0",
		"coschedd_admitted_total 1",
		"coschedd_shed_total 0",
		`coschedd_requests_total{endpoint="/v1/schedule"} 1`,
		"coschedd_schedule_latency_seconds_count 1",
		"coschedd_request_latency_seconds_count 1",
		"exotic_serve_total",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestBatchBoundedMemory streams a batch far larger than the client's
// window and checks the server never materializes it: the response
// must arrive incrementally (first line long before the last scenario
// is even sent).
func TestBatchBoundedMemory(t *testing.T) {
	s := New(Config{Client: repro.NewClient(repro.WithWorkers(2), repro.WithCache(false))})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/evaluate-batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()

	scenario := fmt.Sprintf(`{"apps": %s, "heuristics": ["Fair"]}`, `[{"name": "CG", "work": 5.7e10, "seq": 0.05, "freq": 0.535, "missRate": 6.59e-4, "refCache": 4e7}]`)
	// Send a handful of scenarios, then demand the first report while
	// the body is still open: a server buffering the whole request
	// would block here forever.
	for i := 0; i < 8; i++ {
		if _, err := io.WriteString(pw, scenario+"\n"); err != nil {
			t.Fatal(err)
		}
	}
	var resp *http.Response
	select {
	case resp = <-respc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("no response headers while the request body is open")
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("first streamed line: %v", err)
	}
	var rw ReportWire
	if err := json.Unmarshal([]byte(line), &rw); err != nil || rw.Best == "" {
		t.Fatalf("first line %q (%v)", line, err)
	}
	// Now finish the stream and count the rest.
	for i := 0; i < 8; i++ {
		if _, err := io.WriteString(pw, scenario+"\n"); err != nil {
			t.Fatal(err)
		}
	}
	pw.Close()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(string(rest)), "\n")); got != 15 {
		t.Errorf("remaining lines = %d, want 15", got)
	}
}

// TestScheduleSelectorOptIn: {"selector": true} on /v1/schedule is
// honored on an unarmed service (full-race fallback, explicit reason)
// and served by the prediction on a service armed with a trained
// ledger — with the same winning schedule either way.
func TestScheduleSelectorOptIn(t *testing.T) {
	optIn := strings.Replace(twoApps, `{"apps":`, `{"selector": true, "apps":`, 1)

	_, plain := newTestServer(t, Config{})
	resp, base := post(t, plain.URL+"/v1/schedule", "", twoApps)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, base)
	}
	var want ScheduleWire
	if err := json.Unmarshal([]byte(base), &want); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, plain.URL+"/v1/schedule", "", optIn)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unarmed opt-in status %d: %s", resp.StatusCode, body)
	}
	var sw ScheduleWire
	if err := json.Unmarshal([]byte(body), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Selector == nil || sw.Selector.Predicted || sw.Selector.Fallback != "no-evidence" {
		t.Fatalf("unarmed opt-in selector = %+v, want no-evidence fallback", sw.Selector)
	}
	if sw.Heuristic != want.Heuristic || sw.Makespan != want.Makespan {
		t.Fatalf("unarmed opt-in served %s/%g, plain served %s/%g",
			sw.Heuristic, sw.Makespan, want.Heuristic, want.Makespan)
	}

	// Train the scenario's bucket so the plain winner is the confident
	// call, and arm a service with it.
	var sj ScenarioWire
	if err := json.Unmarshal([]byte(twoApps), &sj); err != nil {
		t.Fatal(err)
	}
	sc, err := sj.Scenario(Defaults{Platform: repro.TaihuLight()})
	if err != nil {
		t.Fatal(err)
	}
	led := repro.NewSelectorLedger()
	bucket := repro.ExtractFeatures(sc.Platform, sc.Apps).Bucket()
	for range [3]struct{}{} {
		if err := led.Ingest(selector.RaceRecord{Bucket: bucket, Heuristic: want.Heuristic, Win: true, Margin: 1}); err != nil {
			t.Fatal(err)
		}
	}
	_, armed := newTestServer(t, Config{
		Client: repro.NewClient(repro.WithSelector(led, repro.SelectorThresholds{})),
	})
	resp, body = post(t, armed.URL+"/v1/schedule", "", optIn)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("armed opt-in status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Selector == nil || !sw.Selector.Predicted || sw.Selector.Races != 3 || sw.Selector.Wins != 3 {
		t.Fatalf("armed opt-in selector = %+v, want predicted with 3/3 evidence", sw.Selector)
	}
	if sw.Heuristic != want.Heuristic || sw.Makespan != want.Makespan {
		t.Fatalf("prediction served %s/%g, full race serves %s/%g",
			sw.Heuristic, sw.Makespan, want.Heuristic, want.Makespan)
	}

	// Without the flag an armed service races in full: no stanza.
	resp, body = post(t, armed.URL+"/v1/schedule", "", twoApps)
	if resp.StatusCode != http.StatusOK || strings.Contains(body, `"selector"`) {
		t.Fatalf("plain request on armed service leaked a selector stanza: %s", body)
	}
}
