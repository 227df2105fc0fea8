// Command coschedd serves co-scheduling as a service: the HTTP front
// door of internal/serve (schedule / evaluate / streaming batch /
// online simulation) on top of one shared v2 client, with admission
// control, per-tenant seeds and the obs debug surface on the same
// listener.
//
// Usage:
//
//	coschedd -addr localhost:8080
//	coschedd -addr :0 -addr-file /tmp/coschedd.addr -max-inflight 128
//
// Endpoints (see internal/serve):
//
//	POST /v1/schedule        winning co-schedule for one scenario
//	POST /v1/evaluate        full portfolio report for one scenario
//	POST /v1/evaluate-batch  NDJSON report stream over a scenario stream
//	POST /v1/simulate        online-simulation summary for a des spec
//	GET  /healthz            liveness
//	GET  /metrics            Prometheus exposition (plus /debug/pprof/*)
//
// At most -max-inflight requests are admitted at once; the rest are
// shed immediately with 429 and a Retry-After hint. Scenarios that do
// not pin a seed get one derived from -seed and the X-Tenant header.
//
// On SIGTERM/SIGINT the server drains: it stops accepting connections,
// finishes in-flight requests within -drain, then prints an admission
// summary and exits — drain first, final output last, like the other
// CLIs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	repro "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// After the first signal starts the drain, restore the default
		// disposition so a second signal force-kills a wedged drain.
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "coschedd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out, errOut io.Writer) (err error) {
	fs := flag.NewFlagSet("coschedd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr        = fs.String("addr", "localhost:8080", `listen address (":0" picks a free port)`)
		addrFile    = fs.String("addr-file", "", "write the bound address to this file once listening")
		workers     = fs.Int("workers", 0, "scheduling worker pool (0 = GOMAXPROCS)")
		maxInflight = fs.Int("max-inflight", 256, "max admitted requests in flight; excess is shed with 429")
		retryAfter  = fs.Duration("retry-after", time.Second, "Retry-After hint sent with 429")
		seed        = fs.Uint64("seed", 0, "service base seed; per-tenant seeds derive from it")
		drain       = fs.Duration("drain", 10*time.Second, "SIGTERM drain deadline for in-flight requests")
		cache       = fs.Bool("cache", true, "memoize solved (scenario, heuristic) pairs across requests, up to 8192 entries evicted by CLOCK")
		selPath     = fs.String("selector", "", `trained ledger file arming {"selector": true} requests with predicted-winner-first selection`)
	)
	prof := obs.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if e := prof.Stop(); err == nil {
			err = e
		}
	}()

	reg := obs.NewRegistry()
	copts := []repro.ClientOption{
		repro.WithWorkers(*workers),
		repro.WithCache(*cache),
		repro.WithMetrics(reg),
	}
	if *selPath != "" {
		led, err := repro.LoadSelectorLedger(*selPath)
		if err != nil {
			return err
		}
		copts = append(copts, repro.WithSelector(led, repro.SelectorThresholds{}))
	}
	client := repro.NewClient(copts...)
	srv := serve.New(serve.Config{
		Client:      client,
		Registry:    reg,
		MaxInflight: *maxInflight,
		RetryAfter:  *retryAfter,
		BaseSeed:    *seed,
	})

	// The API and the debug surface share one listener and one
	// lifecycle: the SIGTERM drain below is exactly the DebugServer
	// shutdown path every CLI uses.
	ls, err := obs.ServeHandler(*addr, srv)
	if err != nil {
		return err
	}
	defer ls.Close() // error paths only; Close is idempotent
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ls.Addr()+"\n"), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(errOut, "coschedd: serving on http://%s (max-inflight %d, drain %s)\n", ls.Addr(), *maxInflight, *drain)

	<-ctx.Done()

	// Drain-then-flush: stop accepting, finish in-flight requests
	// within the deadline, then report what was served.
	fmt.Fprintf(errOut, "coschedd: draining (deadline %s)\n", *drain)
	if err := ls.CloseTimeout(*drain); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintf(out, "coschedd: drained: %d admitted, %d shed\n", srv.Admitted(), srv.Shed())
	return nil
}
