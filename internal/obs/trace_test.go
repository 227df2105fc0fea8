package obs

import (
	"bufio"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerRecordsAndBounds(t *testing.T) {
	tr := newTracer(4)
	tr.Event("arrival", "event", 1.5, 3)
	tr.Span("allocate", "repartition", 2.0, 3, time.Now().Add(-time.Millisecond))
	for i := 0; i < 10; i++ {
		tr.Event("overflow", "", float64(i), i)
	}
	if tr.Len() != 4 {
		t.Errorf("len = %d, want capacity 4", tr.Len())
	}
	if tr.Dropped() != 8 {
		t.Errorf("dropped = %d, want 8", tr.Dropped())
	}
	evs := tr.Events()
	if evs[0].Name != "arrival" || evs[0].Sim != 1.5 || evs[0].Job != 3 {
		t.Errorf("event[0] = %+v", evs[0])
	}
	if evs[1].Dur <= 0 {
		t.Errorf("span duration = %d, want > 0", evs[1].Dur)
	}
}

func TestTracerNDJSON(t *testing.T) {
	tr := newTracer(8)
	tr.Event("a", "k1", 1, 0)
	tr.Event("b", "k2", 2, 1)
	var sb strings.Builder
	if err := tr.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 events + trailer", len(lines))
	}
	if lines[0]["name"] != "a" || lines[1]["name"] != "b" {
		t.Errorf("event order: %v", lines)
	}
	trailer := lines[2]
	if trailer["kind"] != "trace-summary" || trailer["events"] != float64(2) {
		t.Errorf("trailer = %v", trailer)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := newTracer(1 << 12)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 256; i++ {
				tr.Event("e", "", float64(i), w)
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Len() + int(tr.Dropped()); got != 8*256 {
		t.Errorf("len+dropped = %d, want %d", got, 8*256)
	}
}

// TestProfileFlags runs the Start/Stop cycle with real output files and
// checks both profiles materialize non-empty.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := ProfileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to say.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i * i
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s: %v", path, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
	// Unset flags are a no-op cycle.
	p2 := ProfileFlags(flag.NewFlagSet("empty", flag.ContinueOnError))
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p2.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestServeDebug boots the debug server on a free port and checks the
// three surfaces answer: /metrics (lint-clean), /debug/vars, and the
// pprof index.
func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "test counter").Add(3)
	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return resp
	}

	resp := get("/metrics")
	if errs := LintProm(resp.Body); len(errs) != 0 {
		t.Errorf("/metrics failed lint: %v", errs)
	}
	resp.Body.Close()
	get("/debug/vars").Body.Close()
	get("/debug/pprof/").Body.Close()
}
