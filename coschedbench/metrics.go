package main

import (
	"sort"

	"repro/internal/sched"
	"repro/internal/stats"
)

// metricDef is one metric the benchmark prints: its name and unit as
// BENCHMARK.json lists them, and which direction is better. Note defines
// an end-to-end metric; for a per-layer metric it names the end-to-end
// metric it should move, on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Note   string
}

// endToEnd are the untraced run's metrics: what a caller of coschedd
// sees.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower",
		Note: "boot, input generation and warm-up of one epoch, up to its first timed request; median over epochs"},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher",
		Note: "ops / summed wall time of the timed phases"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower",
		Note: "median round trip"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower",
		Note: "90th-percentile round trip"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower",
		Note: "coschedd user+sys CPU over the timed phases / ops"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower",
		Note: "peak resident memory of the coschedd process, median over epochs"},
}

// perLayer are the traced run's metrics, one group per layer of the
// serving path. A layer that a workload's ladder does not reach reports
// 0 there (see the traced run's table).
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"serve.handler_ms_p50", "ms", "lower", "ops_per_s, latency_p50_ms on serve-repeat (nearly all its time); under 1/3 of serve-fresh; ~0 of fleet-stream"},
		{"serve.handler_ms_p99", "ms", "lower", "latency_p90_ms on serve-repeat and serve-fresh"},
		{"serve.codec_ms_p50", "ms", "lower", "latency_p50_ms on serve-repeat (handler minus race or simulate on the same input)"},
		{"serve.transport_ms_p50", "ms", "lower", "latency_p50_ms on serve-repeat (round trip minus handler)"},
		{"serve.shed_total", "count", "lower", "must be 0 on every workload: a 429 is a failed op"},
		{"portfolio.race_ms_p50", "ms", "lower", "latency_p50_ms, cpu_ms_per_op on serve-fresh; the memo-hit race moves serve-repeat latency"},
		{"portfolio.race_ms_p99", "ms", "lower", "latency_p90_ms on serve-fresh"},
		{"portfolio.overhead_ms_p50", "ms", "lower", "latency_p50_ms on serve-fresh (serial race minus its heuristic evals) and serve-repeat (whole hit path)"},
		{"portfolio.parallel_gain", "ratio", "higher", "latency_p50_ms vs cpu_ms_per_op on serve-fresh (sum of evals / race wall at the service's workers)"},
		{"portfolio.cache_hit_ratio", "ratio", "higher", "1.0 on serve-repeat, 0 on serve-fresh; cpu_ms_per_op on fleet-stream"},
		{"portfolio.cache_entries", "count", "lower", "peak_rss_mb on serve-fresh and fleet-stream"},
	}
	for _, h := range sched.ExtendedHeuristics {
		ms = append(ms, metricDef{"sched.eval_us." + h.String(), "us", "lower",
			"ops_per_s, latency_p50_ms on serve-fresh; fleet-stream through full races; nothing on serve-repeat"})
	}
	ms = append(ms, []metricDef{
		{"sched.eval_us_sum", "us", "lower", "ops_per_s, latency_p50_ms, cpu_ms_per_op on serve-fresh; nothing on serve-repeat"},
		{"solve.equalize_us_p50", "us", "lower", "same as sched, mostly serve-fresh"},
		{"des.events_per_op", "count", "lower", "ops_per_s, latency_p50_ms on fleet-stream only"},
		{"des.self_us_per_event", "us", "lower", "ops_per_s, latency_p50_ms on fleet-stream only (node replay wall minus policy time, per event)"},
		{"des.allocate_calls_per_op", "count", "lower", "ops_per_s on fleet-stream only"},
		{"des.allocate_us_p50", "us", "lower", "latency_p50_ms on fleet-stream only"},
		{"des.fast_path_ratio", "ratio", "higher", "ops_per_s, cpu_ms_per_op on fleet-stream only"},
		{"des.memo_hit_ratio", "ratio", "higher", "ops_per_s, cpu_ms_per_op on fleet-stream only"},
		{"fleet.self_ms_p50", "ms", "lower", "ops_per_s, latency_p50_ms on fleet-stream only (simulate wall minus node replays)"},
		{"fleet.self_us_per_arrival", "us", "lower", "ops_per_s, cpu_ms_per_op on fleet-stream only"},
		{"fleet.parallel_gain", "ratio", "higher", "ops_per_s, cpu_ms_per_op on fleet-stream only (wall at 1 worker / wall at the service's workers)"},
		{"fleet.node_jobs_max_over_mean", "ratio", "lower", "latency_p90_ms on fleet-stream only (routing imbalance)"},
		{"go.alloc_kb_per_op", "KB", "lower", "latency_p90_ms and peak_rss_mb on all three workloads"},
		{"go.gc_cycles_per_kop", "count", "lower", "latency_p90_ms and peak_rss_mb on all three workloads"},
		{"request.latency_p99_ms", "ms", "lower", "the untraced run's p99 round trip; the tail behind latency_p90_ms"},
		{"self.transport_ms", "ms", "lower", "latency_p50_ms: round trip minus handler, median over sampled requests"},
		{"self.serve_ms", "ms", "lower", "latency_p50_ms: handler minus the rung below"},
		{"self.portfolio_ms", "ms", "lower", "latency_p50_ms on serve-fresh and serve-repeat: serial race minus its evals"},
		{"self.sched_ms", "ms", "lower", "latency_p50_ms on serve-fresh: eval share of the race wall minus solve"},
		{"self.solve_ms", "ms", "lower", "latency_p50_ms on serve-fresh: one equalizer call on the winner's shares"},
		{"self.fleet_ms", "ms", "lower", "latency_p50_ms on fleet-stream: simulate wall minus node replays"},
		{"self.des_ms", "ms", "lower", "latency_p50_ms on fleet-stream: node replays minus policy time"},
		{"self.allocate_ms", "ms", "lower", "latency_p50_ms on fleet-stream: node policy time (portfolio race and heuristics)"},
		{"trace.remainder_ms", "ms", "lower", "round trip p50 minus the sum of the self-time medians"},
		{"trace.overhead_p50_ms", "ms", "lower", "traced minus untraced latency_p50_ms on the same ops"},
	}...)
	return ms
}()

// quantile is stats.Quantile, or 0 for an empty sample: a rung that a
// workload's ladder does not reach reports 0.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"),
// so the steadiness report matches what the benchmark's consumers compute.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
