// Command coschedbench is the repository's end-to-end benchmark. It
// boots cmd/coschedd with its default configuration on a loopback port,
// drives one named traffic mix over a closed loop of two connections,
// checks every answer against the library, and prints the end-to-end
// metrics as the last line of its output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 1 it repeats the timed phase on a fresh daemon and replays
// sampled requests down the ladder of each layer's public entry points
// (see ladder.go), printing the per-layer metrics instead, with each
// layer's self time, the unattributed remainder and the tracing overhead.
//
// Usage, from the repository root (run.sh builds this command and
// cmd/coschedd first):
//
//	bash coschedbench/run.sh --workload serve-fresh --seed 1 --seconds 30 --trace 0
//	bash coschedbench/run.sh repeat --workload fleet-stream --runs 5 --seconds 30
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/stats"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	ops      int // op count; 0 derives it from seconds (the self-check sets it)
	coschedd string
	traceOut string
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the final output line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if len(os.Args) > 1 && os.Args[1] == "repeat" {
		err = repeatMain(ctx, os.Args[2:], os.Stdout)
	} else {
		err = benchMain(ctx, os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coschedbench:", err)
		os.Exit(1)
	}
}

func benchMain(ctx context.Context, args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	return run(ctx, cfg, stdout)
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("coschedbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "traffic mix: serve-fresh, serve-repeat or fleet-stream")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 30, "run length: the op count is the workload's ops per second times this")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced ladder replay instead")
	fs.StringVar(&cfg.coschedd, "coschedd", "", "coschedd binary (default: next to this one)")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "NDJSON span file of a traced run (default: traces/ next to this binary)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be >= 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return cfg, err
	}
	if cfg.coschedd == "" {
		cfg.coschedd = filepath.Join(filepath.Dir(exe), "coschedd")
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(filepath.Dir(exe), "traces", fmt.Sprintf("%s-seed%d.ndjson", cfg.workload, cfg.seed))
	}
	return cfg, nil
}

// epochs is how many fresh coschedd daemons a run sets up, each timing
// an equal share of the ops. Every epoch's set-up is one sample of
// setup_s, whose median over ten resists the odd slow boot, and spreading
// the timed ops over epochs, with each epoch's answer checks in between,
// samples more of the host's speed drift than one phase could at the
// same memo-cache size.
const epochs = 10

// epoch is one set-up and timed phase, on a daemon of its own. Once
// its answers are checked only its measurements are kept, so every
// set-up starts from the same heap.
type epoch struct {
	plan          *plan
	warm          [][]byte // set-up replies, by set-up request
	replies       [][]byte // timed replies, kept for the checks
	digests       []uint64 // FNV-1a of each timed reply
	ph            *phase
	setup         float64 // seconds
	before, after serverStats
	peakKB        int64
}

// digest fingerprints a reply, so a traced run can compare its replies
// with the untraced run's without keeping them.
func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// runEpoch sets up a fresh daemon for ops [lo, hi) and times them.
// serve-repeat replies are compared byte for byte with the set-up reply
// of their (scenario, tenant) pair as they arrive; the others are kept
// for the checks after the clock stops.
func runEpoch(ctx context.Context, wl *workload, cfg config, lo, hi int) (*epoch, error) {
	// Start the set-up, and so every timing, from a collected heap.
	runtime.GC()
	t0 := time.Now()
	p, err := wl.build(cfg.seed, lo, hi)
	if err != nil {
		return nil, err
	}
	// The load generator runs on one P while it measures: its two
	// connection goroutines need no more, and a second P would only spin
	// on the CPUs coschedd is measured on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d, err := startDaemon(cfg.coschedd)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	ep := &epoch{plan: p, warm: make([][]byte, len(p.warm)), replies: make([][]byte, len(p.ops)), digests: make([]uint64, len(p.ops))}
	w := drive(ctx, d.base, p.warm, func(i int, _ float64, body []byte) error {
		ep.warm[i] = body
		return nil
	})
	if w.firstErr != nil {
		return nil, fmt.Errorf("set-up requests: %w", w.firstErr)
	}
	ep.setup = time.Since(t0).Seconds()

	runtime.GC()
	if ep.before, err = d.stats(ctx); err != nil {
		return nil, err
	}
	ep.ph = drive(ctx, d.base, p.ops, func(i int, _ float64, body []byte) error {
		ep.digests[i] = digest(body)
		if pr := p.ops[i].pair; pr >= 0 {
			if !bytes.Equal(body, ep.warm[pr]) {
				return fmt.Errorf("reply differs from its set-up reply: %s", body)
			}
			return nil
		}
		ep.replies[i] = body
		return nil
	})
	if ep.after, err = d.stats(ctx); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	ep.peakKB = d.peakKB
	return ep, ctx.Err()
}

func run(ctx context.Context, cfg config, stdout io.Writer) error {
	wl, err := lookupWorkload(cfg.workload)
	if err != nil {
		return err
	}
	n := cfg.ops
	if n <= 0 {
		n = int(math.Round(wl.OpsPerSecond * float64(cfg.seconds)))
	}
	n = max(n, epochs) // every epoch times at least one op
	rc := newRunContext(wl, cfg, n)
	if err := json.NewEncoder(stdout).Encode(map[string]any{"context": rc}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %s, %s\nwhy: %s\n", wl.Name, wl.Op, wl.Inputs, wl.Why)

	var eps []*epoch
	var setups, lat, peaks, entries []float64
	var wall float64
	var cpu int64
	var total serverStats
	failed, firstErr := 0, error(nil)
	for k := 0; k < epochs; k++ {
		ep, err := runEpoch(ctx, wl, cfg, k*n/epochs, (k+1)*n/epochs)
		if err != nil {
			return err
		}
		f, ferr := checkAnswers(ctx, wl, ep)
		failed += f
		if firstErr == nil {
			firstErr = ferr
		}
		setups = append(setups, ep.setup)
		lat = append(lat, ep.ph.lat...)
		peaks = append(peaks, float64(ep.peakKB)/1024)
		entries = append(entries, ep.after.entries)
		wall += ep.ph.wall
		cpu += ep.after.cpuTicks - ep.before.cpuTicks
		total.add(ep.after, ep.before)
		ep.plan, ep.warm, ep.replies = nil, nil, nil
		eps = append(eps, ep)
	}

	e2e := map[string]float64{
		"setup_s":        stats.Median(setups),
		"ops_per_s":      float64(n) / wall,
		"latency_p50_ms": quantile(lat, 0.5) * 1e3,
		"latency_p90_ms": quantile(lat, 0.9) * 1e3,
		"cpu_ms_per_op":  float64(cpu) * clockTick.Seconds() * 1e3 / float64(n),
		"peak_rss_mb":    stats.Median(peaks),
	}
	fmt.Fprintf(stdout, "%s: %d ops over %d connections in %d epochs, %.3fs timed, %d checked against the library, %d failed\n",
		wl.Name, n, conns, epochs, wall, n, failed)
	fmt.Fprintf(stdout, "latency samples: %d (%d beyond p90)\n", n, n-int(math.Ceil(0.9*float64(n))))
	printTable(stdout, endToEnd, e2e)
	if firstErr != nil {
		fmt.Fprintln(stdout, "first failure:", firstErr)
	}

	metrics, defs := e2e, endToEnd
	if cfg.trace {
		layer, err := traced(ctx, wl, cfg, eps[0], stdout)
		if err != nil {
			return err
		}
		if err := writeTrace(cfg.traceOut, rc, layer.spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %s\n", cfg.traceOut)
		metrics, defs = layer.metrics, perLayer
		// The daemons' own counters over every timed phase.
		metrics["serve.shed_total"] = total.shed
		metrics["portfolio.cache_hit_ratio"] = ratio(total.hits, total.hits+total.misses)
		metrics["portfolio.cache_entries"] = stats.Median(entries)
		metrics["go.alloc_kb_per_op"] = total.totalAllocBytes / float64(n) / 1024
		metrics["go.gc_cycles_per_kop"] = total.gcCount / float64(n) * 1e3
		metrics["request.latency_p99_ms"] = quantile(lat, 0.99) * 1e3
		fmt.Fprintf(stdout, "per-layer metrics (0 where this workload's ladder does not reach the layer; request p99 over %d untraced ops):\n", n)
		printTable(stdout, perLayer, metrics)
	}
	out := &outcome{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: metrics[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return fmt.Errorf("answer checks failed: %d of %d ops; first: %v", failed, n, firstErr)
	}
	return nil
}

// checkAnswers checks every timed reply of an epoch off the clock and
// returns how many ops failed, counting those the closed loop already
// failed.
func checkAnswers(ctx context.Context, wl *workload, ep *epoch) (int, error) {
	p, ph, o := ep.plan, ep.ph, newOracle()
	failed, firstErr := ph.failed, ph.firstErr
	if wl.Name == "serve-repeat" {
		// Every timed reply equals its pair's set-up reply byte for byte
		// (checked as it arrived); check the set-up replies themselves.
		bad := make([]bool, len(p.warm))
		f, err := verifyAll(len(p.warm), func(k int) error {
			err := o.checkSchedule(ctx, &p.warm[k], ep.warm[k])
			bad[k] = err != nil
			return err
		})
		if f > 0 {
			for i := range p.ops {
				if bad[p.ops[i].pair] && ph.ok(i) {
					failed++
				}
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("set-up reply: %w", err)
			}
		}
		return failed, firstErr
	}
	check := func(i int) error { return o.checkSchedule(ctx, &p.ops[i], ep.replies[i]) }
	if wl.Name == "fleet-stream" {
		check = func(i int) error { return checkFleet(ctx, &p.ops[i], ep.replies[i]) }
	}
	f, err := verifyAll(len(p.ops), func(i int) error {
		if !ph.ok(i) {
			return nil // already counted
		}
		return check(i)
	})
	if firstErr == nil {
		firstErr = err
	}
	return failed + f, firstErr
}

// printTable prints metrics in catalog order with their units.
func printTable(w io.Writer, defs []metricDef, vals map[string]float64) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", d.Name, vals[d.Name], d.Unit, d.Note)
	}
	tw.Flush()
}
