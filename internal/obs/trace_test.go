package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic, strictly advancing time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(time.Millisecond)
	return c.now
}

// decodeTrace parses a WriteTrace dump.
func decodeTrace(t *testing.T, tr *Tracer) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace dump is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc.TraceEvents
}

func TestTracerSpansAndExport(t *testing.T) {
	tr := NewTracer(16)
	tr.SetClock(newFakeClock().Now)

	round := tr.Begin("fed", "round").WithRound(3)
	local := tr.Begin("fed", "local_phase").WithRound(3).WithParent(round.ID())
	local.End()
	round.End()

	events := decodeTrace(t, tr)
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	// Ring order is completion order: local_phase first.
	if events[0]["name"] != "local_phase" || events[1]["name"] != "round" {
		t.Fatalf("unexpected event order: %v", events)
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("event not a complete event: %v", ev)
		}
		if ev["dur"].(float64) <= 0 {
			t.Fatalf("non-positive duration: %v", ev)
		}
		args := ev["args"].(map[string]any)
		if args["round"].(float64) != 3 {
			t.Fatalf("round tag missing: %v", ev)
		}
	}
	args := events[0]["args"].(map[string]any)
	if args["parent"].(float64) != float64(round.ID()) {
		t.Fatalf("child span lost its parent: %v", events[0])
	}
}

func TestTracerDeterministicWithInjectedClock(t *testing.T) {
	dump := func() string {
		tr := NewTracer(8)
		tr.SetClock(newFakeClock().Now)
		s := tr.Begin("cat", "work")
		tr.Begin("cat", "inner").WithParent(s.ID()).End()
		s.End()
		var buf bytes.Buffer
		if err := tr.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := dump(), dump(); a != b {
		t.Fatalf("injected clock not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestTraceRingWraparoundParentIntegrity(t *testing.T) {
	tr := NewTracer(4)
	tr.SetClock(newFakeClock().Now)

	// A parent whose children outlive it in the ring: record the parent,
	// then enough children to evict it.
	parent := tr.Begin("fed", "round")
	parent.End()
	for i := 0; i < 6; i++ {
		tr.Begin("fed", fmt.Sprintf("child_%d", i)).WithParent(parent.ID()).End()
	}

	events := decodeTrace(t, tr)
	if len(events) != 4 {
		t.Fatalf("ring not bounded: %d events, capacity 4", len(events))
	}
	present := map[float64]bool{}
	for _, ev := range events {
		present[ev["args"].(map[string]any)["id"].(float64)] = true
	}
	for _, ev := range events {
		args := ev["args"].(map[string]any)
		p, ok := args["parent"]
		if !ok {
			continue
		}
		if !present[p.(float64)] {
			t.Fatalf("exported span references evicted parent %v: %v", p, ev)
		}
	}
	// The evicted parent must not be referenced by any survivor.
	if present[float64(parent.ID())] {
		t.Fatalf("parent should have been evicted from a capacity-4 ring")
	}
	if got := tr.Recorded(); got != 7 {
		t.Fatalf("lifetime recorded = %d, want 7", got)
	}
}

func TestTraceRingWraparoundKeepsRecentParent(t *testing.T) {
	tr := NewTracer(4)
	tr.SetClock(newFakeClock().Now)

	// Fill and wrap the ring, then record a parent+child pair that both
	// survive: the link must still be exported.
	for i := 0; i < 5; i++ {
		tr.Begin("fed", "noise").End()
	}
	parent := tr.Begin("fed", "round")
	parent.End()
	tr.Begin("fed", "child").WithParent(parent.ID()).End()

	events := decodeTrace(t, tr)
	var found bool
	for _, ev := range events {
		if ev["name"] != "child" {
			continue
		}
		args := ev["args"].(map[string]any)
		if args["parent"].(float64) == float64(parent.ID()) {
			found = true
		}
	}
	if !found {
		t.Fatalf("surviving parent link dropped: %v", events)
	}
}

func TestTracerDisabledAndInertRefs(t *testing.T) {
	defer SetEnabled(true)
	tr := NewTracer(4)

	SetEnabled(false)
	s := tr.Begin("cat", "work")
	if s.ID() != 0 {
		t.Fatalf("disabled Begin returned a live ref")
	}
	s.End() // must be a no-op
	SetEnabled(true)

	if got := tr.Recorded(); got != 0 {
		t.Fatalf("disabled tracer recorded %d spans", got)
	}
	var zero SpanRef
	zero.End() // zero value inert
	var nilTracer *Tracer
	if ref := nilTracer.Begin("cat", "x"); ref.ID() != 0 {
		t.Fatalf("nil tracer returned a live ref")
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Begin("worker", "step").WithTID(w).End()
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Recorded(); got != 1600 {
		t.Fatalf("recorded %d spans, want 1600", got)
	}
	events := decodeTrace(t, tr)
	if len(events) != 128 {
		t.Fatalf("ring holds %d, want capacity 128", len(events))
	}
}

// BenchmarkSpanDisabled prices Begin/End with recording switched off, the
// path no bench/ metric takes (obs.span_ns is the recording path).
func BenchmarkSpanDisabled(b *testing.B) {
	defer SetEnabled(true)
	SetEnabled(false)
	tr := NewTracer(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Begin("bench", "span").End()
	}
}
