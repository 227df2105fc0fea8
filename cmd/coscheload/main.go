// Command coscheload replays the DES arrival processes against a live
// coschedd as real HTTP requests: the paper's virtual arrival streams
// (Poisson, Gamma bursts, fixed batches, trace-derived gaps) become
// wall-clock request schedules, and the observed latencies become a
// run-directory artifact the benchmark gate can hold to a budget.
//
// Usage:
//
//	coscheload -target http://localhost:8080 -arrivals poisson -rate 50 -n 500
//	coscheload -target http://$ADDR -endpoint evaluate -arrivals gamma -duration 30s
//
// Bare arrival names expand to full specs around -rate (requests per
// second); any "process:key=value,..." spec from dessim works verbatim,
// with one virtual time unit mapped to one wall second. Requests
// round-robin over -tenants distinct X-Tenant identities.
//
// The run directory (-out, default runs/load-<stamp>) receives:
//
//	summary.json   counts, achieved RPS, p50/p90/p99 latency
//	latency.prom   the load generator's own histogram exposition
//	bench.txt      BenchmarkServeLoad/<endpoint>/{p50,p99,sustained}
//	               lines for cmd/benchgate
//	metrics.prom   the target's /metrics scrape (unless -scrape=false)
//
// On SIGTERM/SIGINT the generator stops issuing, waits for every
// in-flight request to complete, and still writes all artifacts — a
// mid-run signal loses zero requests.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "coscheload:", err)
		os.Exit(1)
	}
}

// summary is the summary.json artifact.
type summary struct {
	Target   string  `json:"target"`
	Endpoint string  `json:"endpoint"`
	Arrivals string  `json:"arrivals"`
	Tenants  int     `json:"tenants"`
	Sent     int     `json:"sent"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"`
	Errors   int     `json:"errors"`
	Elapsed  float64 `json:"elapsedSeconds"`
	RPS      float64 `json:"rps"`
	P50      float64 `json:"p50Seconds"`
	P90      float64 `json:"p90Seconds"`
	P99      float64 `json:"p99Seconds"`
	// Interrupted records that issuing was cut short by a signal; the
	// requests already in flight still completed and are counted.
	Interrupted bool `json:"interrupted,omitempty"`
}

func run(ctx context.Context, args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("coscheload", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		target    = fs.String("target", "", "base URL of a running coschedd (required)")
		endpoint  = fs.String("endpoint", "schedule", "endpoint to drive: schedule, evaluate or simulate")
		arrivals  = fs.String("arrivals", "poisson", `arrival process: bare name (poisson, gamma, batch, trace) or full "process:key=value,..." spec`)
		rate      = fs.Float64("rate", 20, "target request rate per second (parameterizes bare arrival names)")
		n         = fs.Int("n", 0, "number of requests (0 = rate × duration, or 200 without -duration)")
		duration  = fs.Duration("duration", 0, "stop issuing after this wall time (0 = run the arrival stream out)")
		tenants   = fs.Int("tenants", 4, "distinct X-Tenant identities to round-robin")
		seed      = fs.Uint64("seed", 1, "arrival-stream seed")
		heuristic = fs.String("heuristic", "", "restrict schedule/evaluate bodies to one heuristic (default: full race)")
		inflight  = fs.Int("maxinflight", 64, "max concurrent requests on the wire")
		timeout   = fs.Duration("timeout", 10*time.Second, "per-request timeout")
		wait      = fs.Duration("wait", 10*time.Second, "wait this long for the target's /healthz before starting")
		outDir    = fs.String("out", "", "run directory (default runs/load-<stamp>)")
		scrape    = fs.Bool("scrape", true, "scrape the target's /metrics into the run directory after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return fmt.Errorf("-target is required")
	}
	base := strings.TrimRight(*target, "/")
	if *n == 0 {
		if *duration > 0 {
			*n = int(*rate * duration.Seconds())
		} else {
			*n = 200
		}
		if *n < 1 {
			*n = 1
		}
	}

	times, specName, err := arrivalTimes(*arrivals, *rate, *n, *seed)
	if err != nil {
		return err
	}
	body, path, err := requestBody(*endpoint, *heuristic)
	if err != nil {
		return err
	}

	dir := *outDir
	if dir == "" {
		dir = filepath.Join("runs", fmt.Sprintf("load-%s", time.Now().UTC().Format("20060102-150405")))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	if err := waitHealthy(ctx, base, *wait); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	hist := reg.Histogram("coscheload_latency_seconds", "Observed request latency.", obs.ExpBuckets(1e-4, 2, 16))
	client := &http.Client{Timeout: *timeout}

	var (
		mu        sync.Mutex
		latencies []float64
		sum       summary
	)
	sum.Target, sum.Endpoint, sum.Arrivals, sum.Tenants = base, *endpoint, specName, *tenants

	sem := make(chan struct{}, max(1, *inflight))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := time.Time{}
	if *duration > 0 {
		deadline = start.Add(*duration)
	}

issue:
	for i, at := range times {
		due := start.Add(time.Duration(at * float64(time.Second)))
		if !deadline.IsZero() && due.After(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				sum.Interrupted = true
				break issue
			}
		}
		// Issuing respects the signal; requests already dispatched run
		// on their own timeout-bounded contexts and always finish.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			sum.Interrupted = true
			break issue
		}
		if ctx.Err() != nil {
			<-sem
			sum.Interrupted = true
			break
		}
		sum.Sent++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			status, err := post(client, base+path, fmt.Sprintf("t%d", i%*tenants), body)
			lat := time.Since(t0).Seconds()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				sum.Errors++
			case status == http.StatusTooManyRequests:
				sum.Shed++
			case status != http.StatusOK:
				sum.Errors++
			default:
				sum.OK++
				latencies = append(latencies, lat)
				hist.Observe(lat)
			}
		}(i)
	}
	wg.Wait() // a mid-run signal must lose zero in-flight requests
	sum.Elapsed = time.Since(start).Seconds()
	if sum.Elapsed > 0 {
		sum.RPS = float64(sum.OK) / sum.Elapsed
	}
	if len(latencies) > 0 {
		sum.P50, _ = stats.Quantile(latencies, 0.50)
		sum.P90, _ = stats.Quantile(latencies, 0.90)
		sum.P99, _ = stats.Quantile(latencies, 0.99)
	}

	if err := writeArtifacts(dir, &sum, reg); err != nil {
		return err
	}
	if *scrape {
		if err := scrapeMetrics(base, filepath.Join(dir, "metrics.prom")); err != nil {
			// The run itself succeeded; a failed scrape (target already
			// gone) should not discard its artifacts.
			fmt.Fprintf(errOut, "coscheload: metrics scrape failed: %v\n", err)
		}
	}

	fmt.Fprintf(out, "coscheload: %s %s: sent %d, ok %d, shed %d, errors %d in %.1fs (%.1f req/s, p50 %.1fms, p99 %.1fms) -> %s\n",
		sum.Endpoint, sum.Arrivals, sum.Sent, sum.OK, sum.Shed, sum.Errors,
		sum.Elapsed, sum.RPS, 1e3*sum.P50, 1e3*sum.P99, dir)
	if sum.Errors > 0 {
		return fmt.Errorf("%d request(s) failed", sum.Errors)
	}
	return nil
}

// arrivalTimes materializes the arrival process into wall-clock offsets
// (seconds). Bare process names expand to full specs that hit the
// requested mean rate; explicit specs pass through verbatim.
func arrivalTimes(spec string, rate float64, n int, seed uint64) ([]float64, string, error) {
	if rate <= 0 {
		return nil, "", fmt.Errorf("-rate must be > 0, got %v", rate)
	}
	if !strings.Contains(spec, ":") {
		switch spec {
		case "poisson":
			spec = fmt.Sprintf("poisson:rate=%g,n=%d", rate, n)
		case "gamma":
			// Bursts of 8 with Gamma(0.5, scale) gaps; shape·scale is
			// the mean inter-burst gap, so scale = burst/(shape·rate)
			// keeps the long-run mean at -rate.
			spec = fmt.Sprintf("gamma:burst=8,shape=0.5,scale=%g,n=%d", 8/(0.5*rate), n)
		case "batch":
			spec = fmt.Sprintf("batch:size=8,interval=%g,n=%d", 8/rate, n)
		case "trace":
			spec = fmt.Sprintf("trace:trace=zipf,meanGap=%g,n=%d", 1/rate, n)
		default:
			return nil, "", fmt.Errorf("unknown arrival process %q (want poisson, gamma, batch, trace or a full spec)", spec)
		}
	}
	as, err := des.ParseArrivalSpec(spec)
	if err != nil {
		return nil, "", err
	}
	sc, err := (&des.Spec{Arrivals: as, Seed: seed}).Build()
	if err != nil {
		return nil, "", err
	}
	var times []float64
	for {
		a, ok := sc.Arrivals.Next()
		if !ok {
			break
		}
		times = append(times, a.Time)
		if len(times) >= n {
			break
		}
	}
	if len(times) == 0 {
		return nil, "", fmt.Errorf("arrival spec %q produced no arrivals", spec)
	}
	return times, spec, nil
}

// requestBody builds the fixed request body for the chosen endpoint.
// Seeds are never pinned in the body, so the per-tenant derivation is
// exercised exactly as production traffic would.
func requestBody(endpoint, heuristic string) (body, path string, err error) {
	const apps = `[
		{"name": "CG", "work": 5.7e10, "seq": 0.05, "freq": 0.535, "missRate": 6.59e-4, "refCache": 4e7},
		{"name": "FT", "work": 7.9e10, "seq": 0.02, "freq": 0.590, "missRate": 3.26e-4, "refCache": 4e7},
		{"name": "LU", "work": 9.3e10, "seq": 0.01, "freq": 0.525, "missRate": 4.85e-4, "refCache": 4e7}
	]`
	hs := ""
	if heuristic != "" {
		hs = fmt.Sprintf(`, "heuristics": [%q]`, heuristic)
	}
	switch endpoint {
	case "schedule":
		return fmt.Sprintf(`{"apps": %s%s}`, apps, hs), "/v1/schedule", nil
	case "evaluate":
		return fmt.Sprintf(`{"apps": %s%s}`, apps, hs), "/v1/evaluate", nil
	case "simulate":
		return `{"arrivals": {"process": "poisson", "rate": 2e-9, "n": 4}, "policy": "DominantMinRatio", "maxResident": 2}`, "/v1/simulate", nil
	default:
		return "", "", fmt.Errorf("unknown endpoint %q (want schedule, evaluate or simulate)", endpoint)
	}
}

func post(client *http.Client, url, tenant, body string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	// Drain so the transport reuses the connection under load.
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// waitHealthy polls the target's /healthz until it answers or the
// budget runs out.
func waitHealthy(ctx context.Context, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("target %s not healthy within %s: %v", base, budget, err)
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// writeArtifacts emits summary.json, latency.prom and bench.txt into
// the run directory.
func writeArtifacts(dir string, sum *summary, reg *obs.Registry) error {
	sj, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "summary.json"), append(sj, '\n'), 0o644); err != nil {
		return err
	}

	pf, err := os.Create(filepath.Join(dir, "latency.prom"))
	if err != nil {
		return err
	}
	if err := reg.WriteProm(pf); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}

	// bench.txt renders the tail-latency and sustained-throughput
	// numbers as go-bench lines, so cmd/benchgate holds them to the
	// budgets in benchmarks/baseline.json exactly like alloc gates:
	// sustained is wall-nanoseconds per completed request (the inverse
	// of achieved RPS).
	var b strings.Builder
	fmt.Fprintf(&b, "BenchmarkServeLoad/%s/p50 1 %.1f ns/op\n", sum.Endpoint, 1e9*sum.P50)
	fmt.Fprintf(&b, "BenchmarkServeLoad/%s/p99 1 %.1f ns/op\n", sum.Endpoint, 1e9*sum.P99)
	if sum.OK > 0 {
		fmt.Fprintf(&b, "BenchmarkServeLoad/%s/sustained 1 %.1f ns/op\n", sum.Endpoint, 1e9*sum.Elapsed/float64(sum.OK))
	}
	return os.WriteFile(filepath.Join(dir, "bench.txt"), []byte(b.String()), 0o644)
}

// scrapeMetrics saves the target's exposition for the CI lint.
func scrapeMetrics(base, path string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
