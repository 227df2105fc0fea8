package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	repro "repro"
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
