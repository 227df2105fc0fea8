package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one cmd/coschedd process started with its default
// configuration on a loopback port: memo cache on, metrics registry on,
// workers = GOMAXPROCS, max-inflight 256.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	out     bytes.Buffer
	logDone chan struct{}
	ctl     *http.Client
	stopped bool

	// The resident-memory sampler: peakKB is final once rssDone closes.
	rssStop, rssDone chan struct{}
	peakKB           int64
}

// rssEvery is the resident-memory sampling period. The kernel's own
// high-water marks (VmHWM, rusage maxrss) are not used: on a 2-vCPU
// Linux 6.18 VM they drifted upward with page churn, so a daemon serving
// memo hits at a flat 15 MB reported up to 48 MB.
const rssEvery = 20 * time.Millisecond

var servingRE = regexp.MustCompile(`serving on (http://\S+)`)

// startDaemon launches bin and waits until it listens.
func startDaemon(bin string) (*daemon, error) {
	d := &daemon{logDone: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0")
	d.cmd.Stdout = &d.out
	// The daemon must not outlive the benchmark, whatever kills it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case d.base = <-addr:
	case <-d.logDone:
		err = fmt.Errorf("coschedd exited before listening")
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("coschedd did not listen within 30s")
	}
	if err != nil {
		d.kill()
		return nil, err
	}
	d.ctl = &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 30 * time.Second}
	d.rssStop, d.rssDone = make(chan struct{}), make(chan struct{})
	go d.sampleRSS()
	return d, nil
}

// sampleRSS tracks the daemon's peak resident set from /proc until
// rssStop closes.
func (d *daemon) sampleRSS() {
	defer close(d.rssDone)
	path := fmt.Sprintf("/proc/%d/statm", d.cmd.Process.Pid)
	pageKB := int64(os.Getpagesize() / 1024)
	t := time.NewTicker(rssEvery)
	defer t.Stop()
	for {
		if raw, err := os.ReadFile(path); err == nil {
			if f := strings.Fields(string(raw)); len(f) > 1 {
				if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
					d.peakKB = max(d.peakKB, pages*pageKB)
				}
			}
		}
		select {
		case <-d.rssStop:
			return
		case <-t.C:
		}
	}
}

// stopSampling ends the sampler and waits for it.
func (d *daemon) stopSampling() {
	close(d.rssStop)
	<-d.rssDone
}

// stop records the daemon's peak resident memory, drains it with
// SIGTERM, as an operator would, and waits for it.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	d.stopSampling()
	d.ctl.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.logDone:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.logDone
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("coschedd: %w (stdout %q)", err, d.out.String())
	}
	return nil
}

// kill ends the daemon without a drain; for error paths.
func (d *daemon) kill() {
	if d.stopped {
		return
	}
	d.stopped = true
	_ = d.cmd.Process.Kill()
	<-d.logDone
	_ = d.cmd.Wait()
	if d.rssStop != nil {
		d.stopSampling()
	}
}

// serverStats is a snapshot of the daemon's own counters: process CPU
// from /proc, memo-cache and admission counters from /metrics, and Go
// runtime allocation counters from /debug/vars.
type serverStats struct {
	cpuTicks                 int64
	hits, misses, entries    float64
	shed                     float64
	totalAllocBytes, gcCount float64
}

// add accumulates the counter increments from before to after; entries,
// a level rather than a counter, is left alone.
func (st *serverStats) add(after, before serverStats) {
	st.cpuTicks += after.cpuTicks - before.cpuTicks
	st.hits += after.hits - before.hits
	st.misses += after.misses - before.misses
	st.shed += after.shed - before.shed
	st.totalAllocBytes += after.totalAllocBytes - before.totalAllocBytes
	st.gcCount += after.gcCount - before.gcCount
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
// every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

func (d *daemon) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return st, fmt.Errorf("short /proc stat line %q", raw)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return st, fmt.Errorf("parsing /proc stat line %q", raw)
	}
	st.cpuTicks = ut + stt

	prom, err := d.get(ctx, "/metrics")
	if err != nil {
		return st, err
	}
	want := map[string]*float64{
		"portfolio_cache_hits_total":   &st.hits,
		"portfolio_cache_misses_total": &st.misses,
		"portfolio_cache_entries":      &st.entries,
		"coschedd_shed_total":          &st.shed,
	}
	for _, line := range strings.Split(string(prom), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if p := want[name]; ok && p != nil {
			if *p, err = strconv.ParseFloat(strings.TrimSpace(val), 64); err != nil {
				return st, fmt.Errorf("parsing metric line %q: %w", line, err)
			}
			delete(want, name)
		}
	}
	if len(want) > 0 {
		return st, fmt.Errorf("coschedd /metrics lacks %d expected series", len(want))
	}

	vars, err := d.get(ctx, "/debug/vars")
	if err != nil {
		return st, err
	}
	var v struct {
		Memstats struct {
			TotalAlloc uint64
			NumGC      uint32
		} `json:"memstats"`
	}
	if err := json.Unmarshal(vars, &v); err != nil {
		return st, fmt.Errorf("parsing /debug/vars: %w", err)
	}
	st.totalAllocBytes, st.gcCount = float64(v.Memstats.TotalAlloc), float64(v.Memstats.NumGC)
	return st, nil
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.ctl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}
