package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	repro "repro"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// BenchmarkServeSchedule measures one /v1/schedule request through the
// full handler stack — admission, decode, portfolio race, response
// encoding — with metrics on, the production configuration. The cache
// is warm after the first iteration, so this is the steady-state
// serving cost the RPS gate budgets against. The client runs one
// worker; a one-scenario race runs on its caller at any worker count,
// so the arm's gated allocations do not depend on GOMAXPROCS.
func BenchmarkServeSchedule(b *testing.B) {
	reg := obs.NewRegistry()
	s := New(Config{
		Client:   repro.NewClient(repro.WithWorkers(1), repro.WithMetrics(reg)),
		Registry: reg,
	})
	body := `{"apps": [
		{"name": "CG", "work": 5.7e10, "seq": 0.05, "freq": 0.535, "missRate": 6.59e-4, "refCache": 4e7},
		{"name": "FT", "work": 7.9e10, "seq": 0.02, "freq": 0.590, "missRate": 3.26e-4, "refCache": 4e7},
		{"name": "LU", "work": 9.3e10, "seq": 0.01, "freq": 0.525, "missRate": 4.85e-4, "refCache": 4e7}
	]}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body))
		req.Header.Set(TenantHeader, "bench")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServeSimulateFleet measures one /v1/simulate-fleet request
// of the fleet-stream shape (see fleetStreamSpec: 16 nodes, portfolio
// policies, a 1,024-job stream) through the full handler stack on a
// metrics-on client, the four routers in turn. Each node races its
// portfolio serially on the request's goroutine, so allocs/op do not
// depend on GOMAXPROCS.
func BenchmarkServeSimulateFleet(b *testing.B) {
	reg := obs.NewRegistry()
	s := New(Config{
		Client:   repro.NewClient(repro.WithWorkers(1), repro.WithMetrics(reg)),
		Registry: reg,
	})
	bodies := make([]string, len(fleet.Routings))
	for i, routing := range fleet.Routings {
		body, err := json.Marshal(fleetStreamSpec(routing, 1024, uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = string(body)
	}
	serve := func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate-fleet", strings.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	serve(0) // one untimed op, so the first timed one runs warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
}
