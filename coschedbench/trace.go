package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// tracedResult is what a traced run adds: the per-layer metrics and the
// recorded spans.
type tracedResult struct {
	metrics map[string]float64
	spans   []span
}

// traced regenerates the ops of the first epoch, ep, and repeats them on
// a fresh daemon, set up like that epoch, replaying every k-th of them
// down the ladder as its reply arrives; the untraced latencies of the
// same ops give the tracing overhead. It prints the self-time table and
// returns the ladder's per-layer metrics.
func traced(ctx context.Context, wl *workload, cfg config, ep *epoch, stdout io.Writer) (*tracedResult, error) {
	m := len(ep.digests)
	every := max(1, m/wl.Samples)
	p, err := wl.build(cfg.seed, 0, m)
	if err != nil {
		return nil, err
	}

	l := newLadder()
	if err := l.warm(ctx, p.warm); err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.coschedd)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	if w := drive(ctx, d.base, p.warm, nil); w.firstErr != nil {
		return nil, fmt.Errorf("traced set-up requests: %w", w.firstErr)
	}
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tp := drive(tctx, d.base, p.ops, func(i int, rt float64, body []byte) error {
		if digest(body) != ep.digests[i] {
			return fmt.Errorf("traced reply differs from the untraced one")
		}
		if i%every == 0 {
			if err := l.sample(tctx, i, &p.ops[i], rt, body); err != nil {
				cancel()
				return err
			}
		}
		return nil
	})
	if err := d.stop(); err != nil {
		return nil, err
	}
	if tp.firstErr != nil {
		return nil, fmt.Errorf("traced phase: %w", tp.firstErr)
	}

	mt := l.metrics()
	untraced := quantile(ep.ph.lat, 0.5) * 1e3
	tracedP50 := quantile(tp.lat, 0.5) * 1e3
	mt["trace.overhead_p50_ms"] = tracedP50 - untraced

	fmt.Fprintf(stdout, "traced phase: the %d ops of epoch 1 on a fresh coschedd, ladder on every %d-th: %d sampled requests, %d spans\n",
		m, every, len(l.scheds)+len(l.fleets), len(l.spans))
	fmt.Fprintln(stdout, "self time per rung, median over sampled requests:")
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	for _, k := range selfOrder {
		if v, ok := mt[k]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\tms\n", k, v)
		}
	}
	fmt.Fprintf(tw, "  unattributed remainder\t%.6g\tms\tround-trip p50 minus the rows above\n", mt["trace.remainder_ms"])
	fmt.Fprintf(tw, "  tracing overhead\t%+.6g\tms\ttraced p50 %.6g ms vs untraced p50 %.6g ms on the same %d ops (%+.1f%%)\n",
		mt["trace.overhead_p50_ms"], tracedP50, untraced, m, 100*ratio(tracedP50-untraced, untraced))
	tw.Flush()
	return &tracedResult{metrics: mt, spans: l.spans}, nil
}

// writeTrace writes the run context and every span as NDJSON.
func writeTrace(path string, rc *runContext, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"context": rc}); err != nil {
		f.Close()
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
