package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// tinyOps is the self-check's op count per workload.
var tinyOps = map[string]int{"serve-fresh": 40, "serve-repeat": 300, "fleet-stream": 10}

// reaches lists, per workload, per-layer metrics its ladder must measure
// as nonzero in a traced run.
var reaches = map[string][]string{
	"serve-fresh": {"serve.handler_ms_p50", "serve.transport_ms_p50", "portfolio.race_ms_p50",
		"portfolio.parallel_gain", "portfolio.cache_entries", "sched.eval_us.LocalSearch", "sched.eval_us_sum",
		"solve.equalize_us_p50", "self.sched_ms", "self.solve_ms", "go.alloc_kb_per_op"},
	"serve-repeat": {"serve.handler_ms_p50", "serve.codec_ms_p50", "portfolio.race_ms_p50",
		"portfolio.overhead_ms_p50", "portfolio.cache_hit_ratio", "portfolio.cache_entries", "self.portfolio_ms"},
	"fleet-stream": {"serve.handler_ms_p50", "des.events_per_op", "des.self_us_per_event", "des.allocate_calls_per_op",
		"des.allocate_us_p50", "des.memo_hit_ratio", "fleet.self_ms_p50", "fleet.self_us_per_arrival",
		"fleet.parallel_gain", "fleet.node_jobs_max_over_mean", "self.fleet_ms", "self.des_ms", "self.allocate_ms"},
}

// buildCoschedd builds the daemon the benchmark drives.
func buildCoschedd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "coschedd")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/coschedd").CombinedOutput()
	if err != nil {
		t.Fatalf("building coschedd: %v\n%s", err, out)
	}
	return bin
}

// TestTinyRuns runs every workload at a tiny op count, untraced and
// traced: every metric must be printed with its unit, every op checked,
// none failed, and the final line must hold exactly the result keys.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots coschedd")
	}
	bin := buildCoschedd(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				n := tinyOps[wl.Name]
				spans := filepath.Join(t.TempDir(), "spans.ndjson")
				cfg := config{workload: wl.Name, seed: 7, seconds: 1, trace: trace, ops: n, coschedd: bin, traceOut: spans}
				var buf bytes.Buffer
				if err := run(context.Background(), cfg, &buf); err != nil {
					t.Fatalf("run: %v\n%s", err, buf.String())
				}
				text := buf.String()
				if want := fmt.Sprintf("%d ops over %d connections", n, conns); !strings.Contains(text, want) {
					t.Errorf("output lacks %q", want)
				}
				if want := fmt.Sprintf("%d checked against the library, 0 failed", n); !strings.Contains(text, want) {
					t.Errorf("output lacks %q:\n%s", want, text)
				}
				lines := strings.Split(strings.TrimSpace(text), "\n")
				last := []byte(lines[len(lines)-1])
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(last, &keys); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
					t.Errorf("last line keys %v, want exactly correct, attempted, failed, metrics", keys)
				}
				var o outcome
				if err := json.Unmarshal(last, &o); err != nil {
					t.Fatal(err)
				}
				if !o.Correct || o.Failed != 0 || o.Attempted != n {
					t.Errorf("correct=%v attempted=%d failed=%d, want true %d 0", o.Correct, o.Attempted, o.Failed, n)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(o.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(o.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := o.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case v.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, v.Unit, d.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s = %v", d.Name, v.Value)
					case !trace && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
				}
				if !trace {
					return
				}
				for _, name := range reaches[wl.Name] {
					if o.Metrics[name].Value == 0 {
						t.Errorf("%s: ladder reported 0 for %s", wl.Name, name)
					}
				}
				if v := o.Metrics["serve.shed_total"].Value; v != 0 {
					t.Errorf("serve.shed_total = %v, want 0", v)
				}
				if v := o.Metrics["portfolio.cache_hit_ratio"].Value; (wl.Name == "serve-repeat" && v != 1) || (wl.Name == "serve-fresh" && v != 0) {
					t.Errorf("%s: portfolio.cache_hit_ratio = %v", wl.Name, v)
				}
				checkSpans(t, spans, wl.Name)
			})
		}
	}
}

// checkSpans: the span file starts with the run context, and every span
// names its request and, below the top rung, its parent.
func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	if !sc.Scan() || !strings.Contains(sc.Text(), `"workload":"`+workload+`"`) {
		t.Fatalf("span file lacks its run context line")
	}
	names := map[string]int{}
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Name != "request" && s.Parent == "" {
			t.Errorf("span %s of request %d has no parent", s.Name, s.Req)
		}
		names[s.Name]++
	}
	want := []string{"request", "serve.handler", "portfolio.race"}
	if workload == "serve-fresh" {
		want = append(want, "sched.eval", "solve.equalize")
	}
	if workload == "fleet-stream" {
		want = []string{"request", "serve.handler", "fleet.simulate", "des.node", "des.allocate"}
	}
	for _, n := range want {
		if names[n] == 0 {
			t.Errorf("no %s spans (have %v)", n, names)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric
// and workload tables printed by the benchmark in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the benchmark %d/%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, d)
		}
	}
}
