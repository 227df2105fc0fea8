package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SpanEvent is one tracer record. Point events have Dur == 0; spans
// carry their wall-clock duration. Sim is the simulation's virtual
// clock at the moment of recording (0 when the instrumented layer has
// no virtual clock), Wall is wall-time nanoseconds since the tracer was
// created — both clocks in one record is what lets a timeline viewer
// correlate "what the simulation thinks happened" with "what the
// machine actually spent".
type SpanEvent struct {
	Name string  `json:"name"`
	Kind string  `json:"kind,omitempty"` // free-form tag: event kind, policy name...
	Sim  float64 `json:"sim"`            // virtual time (simulation units)
	Wall int64   `json:"wallNs"`         // wall ns since tracer start
	Dur  int64   `json:"durNs,omitempty"`
	Job  int     `json:"job,omitempty"` // -1/0 when not job-scoped
}

// Tracer records SpanEvents into a bounded in-memory buffer. Once the
// buffer fills, further records are counted as dropped rather than
// grown — tracing must never turn a long simulation into an OOM. All
// methods are safe for concurrent use, and a nil *Tracer is a no-op, so
// layers hold a plain *Tracer field and record unconditionally.
//
// The buffer is pre-allocated at construction and records are fixed
// structs (no interface boxing), so a steady-state Record costs one
// mutex acquisition and a struct copy.
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	events  []SpanEvent
	dropped uint64
}

// NewTracer returns a tracer holding at most 1<<16 events.
func NewTracer() *Tracer { return newTracer(1 << 16) }

// newTracer returns a tracer holding at most capacity events.
func newTracer(capacity int) *Tracer {
	return &Tracer{start: time.Now(), events: make([]SpanEvent, 0, capacity)}
}

// Event records a point event at virtual time sim.
func (t *Tracer) Event(name, kind string, sim float64, job int) {
	if t == nil {
		return
	}
	t.record(SpanEvent{Name: name, Kind: kind, Sim: sim, Job: job,
		Wall: time.Since(t.start).Nanoseconds()})
}

// Span records a completed operation that started at wall-clock
// began and virtual time sim.
func (t *Tracer) Span(name, kind string, sim float64, job int, began time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.record(SpanEvent{Name: name, Kind: kind, Sim: sim, Job: job,
		Wall: began.Sub(t.start).Nanoseconds(), Dur: now.Sub(began).Nanoseconds()})
}

func (t *Tracer) record(ev SpanEvent) {
	t.mu.Lock()
	if len(t.events) < cap(t.events) {
		t.events = append(t.events, ev)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many records the capacity bound discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the buffered records in arrival order.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanEvent(nil), t.events...)
}

// WriteNDJSON writes one JSON object per line: every buffered event in
// arrival order, then a trailer {"kind":"trace-summary",...} with the
// buffered and dropped totals.
func (t *Tracer) WriteNDJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	events := t.Events()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	trailer := struct {
		Kind    string `json:"kind"`
		Events  int    `json:"events"`
		Dropped uint64 `json:"dropped"`
	}{Kind: "trace-summary", Events: len(events), Dropped: t.Dropped()}
	if err := enc.Encode(&trailer); err != nil {
		return err
	}
	return bw.Flush()
}
