// Package serve implements the scheduling-as-a-service front door: an
// HTTP (JSON/NDJSON) surface over the v2 client, used by cmd/coschedd.
//
// Endpoints:
//
//	POST /v1/schedule        one scenario in, the winning co-schedule out;
//	                         {"selector": true} opts into learned
//	                         predicted-winner-first selection when the
//	                         service's client is armed with a ledger
//	                         (repro.WithSelector, coschedd -selector)
//	POST /v1/evaluate        one scenario in, the full portfolio report out
//	POST /v1/evaluate-batch  scenario stream in (JSON array or NDJSON),
//	                         one NDJSON report line per scenario, in
//	                         input order, streamed in bounded memory
//	POST /v1/simulate        a des scenario spec in, the run summary out
//	POST /v1/simulate-fleet  a fleet scenario spec in (N nodes + routing
//	                         policy), the fleet-wide summary out
//	GET  /healthz            liveness
//
// Every other path falls through to the obs debug surface (/metrics,
// /debug/pprof/*, /debug/vars) of the configured registry.
//
// Admission is a counting semaphore in the spirit of the DES
// MaxResident bound: at most MaxInflight requests hold a slot at once,
// the rest are shed immediately with 429 and a Retry-After hint rather
// than queueing without bound. A batch request holds one slot for its
// whole stream — it is one tenant workload, however long.
//
// Seeds are per-tenant: the X-Tenant request header is hashed into the
// service's base seed (see TenantSeed), and a scenario that does not
// pin its own seed inherits that value, so one tenant's identical
// requests are bit-identical while two tenants' randomized heuristics
// draw from distinct streams.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// TenantHeader names the request header carrying the tenant identity.
const TenantHeader = "X-Tenant"

// Config configures a Server. The zero value of every field is usable.
type Config struct {
	// Client computes; a nil Client gets a default repro.NewClient().
	Client *repro.Client
	// Registry receives the service metrics (admission counters,
	// latency histograms); nil disables metrics export, admission
	// counters still run for the drain summary.
	Registry *obs.Registry
	// MaxInflight bounds concurrently admitted requests; <= 0 means 64.
	MaxInflight int
	// RetryAfter is the hint sent with a 429; <= 0 means one second.
	RetryAfter time.Duration
	// BaseSeed is the service seed tenant seeds are derived from.
	BaseSeed uint64
}

// Server is the HTTP front door. It implements http.Handler and is
// safe for concurrent use.
type Server struct {
	client     *repro.Client
	mux        *http.ServeMux
	sem        chan struct{}
	retryAfter time.Duration
	baseSeed   uint64

	// Admission accounting is always on (the drain summary needs it);
	// the registry handles below are nil-safe no-ops when unset.
	admitted atomic.Uint64
	shed     atomic.Uint64
	inflight atomic.Int64

	requests *obs.CounterVec
	schedLat *obs.Histogram
	reqLat   *obs.Histogram
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Client == nil {
		cfg.Client = repro.NewClient()
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		client:     cfg.Client,
		sem:        make(chan struct{}, cfg.MaxInflight),
		retryAfter: cfg.RetryAfter,
		baseSeed:   cfg.BaseSeed,
	}
	if reg := cfg.Registry; reg != nil {
		reg.GaugeFunc("coschedd_inflight", "Admitted requests currently in flight.",
			func() float64 { return float64(s.inflight.Load()) })
		reg.CounterFunc("coschedd_admitted_total", "Requests admitted past the inflight bound.",
			func() float64 { return float64(s.admitted.Load()) })
		reg.CounterFunc("coschedd_shed_total", "Requests shed with 429 at the inflight bound.",
			func() float64 { return float64(s.shed.Load()) })
		s.requests = reg.CounterVec("coschedd_requests_total", "Requests served, by endpoint.", "endpoint")
		lat := obs.ExpBuckets(1e-4, 2, 16) // 100µs .. ~3.3s
		s.schedLat = reg.Histogram("coschedd_schedule_latency_seconds", "Scheduling compute latency.", lat)
		s.reqLat = reg.Histogram("coschedd_request_latency_seconds", "Whole-request latency, by admission.", lat)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", s.admitted1(s.handleSchedule))
	mux.HandleFunc("POST /v1/evaluate", s.admitted1(s.handleEvaluate))
	mux.HandleFunc("POST /v1/evaluate-batch", s.admitted1(s.handleEvaluateBatch))
	mux.HandleFunc("POST /v1/simulate", s.admitted1(s.handleSimulate))
	mux.HandleFunc("POST /v1/simulate-fleet", s.admitted1(s.handleSimulateFleet))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/", obs.Handler(cfg.Registry))
	s.mux = mux
	return s
}

// ServeHTTP dispatches to the API or the debug surface.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Admitted and Shed report the admission totals, for the drain summary.
func (s *Server) Admitted() uint64 { return s.admitted.Load() }
func (s *Server) Shed() uint64     { return s.shed.Load() }

// admitted1 wraps an API handler with semaphore admission: acquire a
// slot or shed with 429 + Retry-After, and observe whole-request
// latency while a slot is held.
func (s *Server) admitted1(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.shed.Add(1)
			s.requests.With("shed").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int((s.retryAfter+time.Second-1)/time.Second)))
			writeError(w, http.StatusTooManyRequests, errors.New("server saturated: all inflight slots busy"))
			return
		}
		s.admitted.Add(1)
		s.inflight.Add(1)
		s.requests.With(r.URL.Path).Inc()
		var start time.Time
		if s.reqLat != nil {
			start = time.Now()
		}
		defer func() {
			if s.reqLat != nil {
				s.reqLat.Observe(time.Since(start).Seconds())
			}
			s.inflight.Add(-1)
			<-s.sem
		}()
		h(w, r)
	}
}

// defaults resolves the request's tenant into scenario defaults.
func (s *Server) defaults(r *http.Request) Defaults {
	return Defaults{
		Platform: repro.TaihuLight(),
		Seed:     TenantSeed(s.baseSeed, r.Header.Get(TenantHeader)),
	}
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var sj ScenarioWire
	if err := decodeOne(r, &sj); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sc, err := sj.Scenario(s.defaults(r))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var rep *repro.PortfolioReport
	var selw *SelectorWire
	if sj.Selector {
		// Opt-in learned selection: predicted winner first, full race on
		// doubt. On a client without a trained ledger every request falls
		// back — the response then matches the plain path bit for bit,
		// modulo the selector stanza.
		d, err := s.selectOne(r, sc)
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		rep = d.Report
		selw = &SelectorWire{Predicted: d.Predicted, Fallback: d.FallbackReason}
		if d.Predicted {
			selw.Races, selw.Wins = d.Prediction.Races, d.Prediction.Wins
		}
	} else if rep, err = s.evaluate(r, sc); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	best := rep.BestResult()
	if best == nil {
		writeError(w, http.StatusUnprocessableEntity, repro.ErrInfeasible)
		return
	}
	out := ScheduleOf(sc, best)
	out.Selector = selw
	writeJSON(w, out)
}

// selectOne runs one scenario through the client's selector, timing the
// compute section like evaluate.
func (s *Server) selectOne(r *http.Request, sc repro.PortfolioScenario) (*repro.SelectorDecision, error) {
	var start time.Time
	if s.schedLat != nil {
		start = time.Now()
	}
	d, err := s.client.Select(r.Context(), sc)
	if s.schedLat != nil {
		s.schedLat.Observe(time.Since(start).Seconds())
	}
	return d, err
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var sj ScenarioWire
	if err := decodeOne(r, &sj); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sc, err := sj.Scenario(s.defaults(r))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rep, err := s.evaluate(r, sc)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, ReportOf(rep))
}

// evaluate runs one scenario, timing the compute section.
func (s *Server) evaluate(r *http.Request, sc repro.PortfolioScenario) (*repro.PortfolioReport, error) {
	var start time.Time
	if s.schedLat != nil {
		start = time.Now()
	}
	rep, err := s.client.Evaluate(r.Context(), sc)
	if s.schedLat != nil {
		s.schedLat.Observe(time.Since(start).Seconds())
	}
	return rep, err
}

// handleEvaluateBatch streams the request body through the client's
// bounded-window batch evaluator: one NDJSON report line per scenario,
// flushed as it completes, so arbitrarily long batches are served in
// bounded memory end to end. Errors after the first byte has been
// written surface as a final {"error": ...} line — the stream is
// already committed to 200 by then.
func (s *Server) handleEvaluateBatch(w http.ResponseWriter, r *http.Request) {
	// Reports must interleave with request-body reads on one
	// connection: without full duplex the server drains the entire
	// remaining body before releasing the first response byte, which
	// both defeats bounded memory and deadlocks a client that waits
	// for early reports before sending more scenarios.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	d := s.defaults(r)

	var decodeErr error
	scenarios := func(yield func(repro.PortfolioScenario) bool) {
		decodeErr = DecodeScenarios(r.Body, "request body", d, yield)
	}
	err := s.client.EvaluateBatch(r.Context(), scenarios, func(br repro.BatchResult) error {
		if err := enc.Encode(ReportOf(br.Report)); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		// Headers are gone; append a terminal error line instead.
		_ = enc.Encode(ReportWire{Error: err.Error()})
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	sp, err := des.DecodeSpec(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if sp.Seed == 0 {
		sp.Seed = TenantSeed(s.baseSeed, r.Header.Get(TenantHeader))
	}
	sc, err := sp.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var start time.Time
	if s.schedLat != nil {
		start = time.Now()
	}
	res, err := s.client.SimulateOnline(r.Context(), sc)
	if s.schedLat != nil {
		s.schedLat.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, SummaryOf(sc, res))
}

// handleSimulateFleet mirrors handleSimulate for multi-node fleet
// scenarios: decode the fleet spec (node policies included, so a bad
// one is a 400), default the seed from the tenant, and return the
// fleet-wide summary.
func (s *Server) handleSimulateFleet(w http.ResponseWriter, r *http.Request) {
	sp, err := fleet.DecodeSpec(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if sp.Seed == 0 {
		sp.Seed = TenantSeed(s.baseSeed, r.Header.Get(TenantHeader))
	}
	sc, err := sp.Build(0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var start time.Time
	if s.schedLat != nil {
		start = time.Now()
	}
	res, err := s.client.SimulateFleet(r.Context(), sc)
	if s.schedLat != nil {
		s.schedLat.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, FleetSummaryOf(sc, res))
}

// decodeOne reads exactly one JSON document from the request body.
func decodeOne(r *http.Request, v any) error {
	if err := des.DecodeOne(json.NewDecoder(r.Body), v); err != nil {
		return fmt.Errorf("parsing request body: %w", err)
	}
	return nil
}

// statusOf maps evaluation errors to HTTP statuses: validation
// failures are the caller's fault, cancellation means the caller went
// away, anything else is ours.
func statusOf(err error) int {
	var verr *repro.ValidationError
	switch {
	case errors.As(err, &verr):
		return http.StatusBadRequest
	case errors.Is(err, repro.ErrInfeasible):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

type errorWire struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorWire{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
