package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Inc()
	if got := c.Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	var g Gauge
	g.Set(1.5)
	if got := g.Load(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

// counter, gauge and histogram bind a fresh instrument under name.
func counter(r *Registry, name, help string) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, c)
	return c
}

func gauge(r *Registry, name, help string) *Gauge {
	g := &Gauge{}
	r.RegisterGauge(name, help, g)
	return g
}

func histogram(r *Registry, name, help string) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(name, help, h)
	return h
}

func TestHistogramEdgeObservations(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-7)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(1e300) // beyond the 2^34 top bound: overflow bucket
	h.Observe(1e-12) // below the 2^-30 bottom bound: under bucket
	h.Observe(1.0)

	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	// Sum excludes NaN and +Inf but includes zero/negative/finite.
	wantSum := 0.0 + -7 + 1e300 + 1e-12 + 1.0
	if s.Sum != wantSum {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
	if len(s.Bounds) == 0 {
		t.Fatal("no buckets rendered")
	}
	// The last cumulative bound holds everything except NaN/+Inf/1e300:
	// zero, -7, the sub-grid 1e-12, and 1.0.
	last := s.Cumulative[len(s.Cumulative)-1]
	if last != 4 {
		t.Fatalf("last cumulative = %d, want 4 (zero, negative, 1e-12, 1.0)", last)
	}
	// 1.0 lands in the bucket whose upper bound is 2: cumulative at le=2
	// must include it plus the three below-grid observations.
	for i, le := range s.Bounds {
		if le == 2 {
			if s.Cumulative[i] != 4 {
				t.Fatalf("cumulative at le=2 is %d, want 4", s.Cumulative[i])
			}
			return
		}
	}
	t.Fatal("no le=2 bucket in snapshot")
}

func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	// Exactly a power of two sits at the bottom of its bucket:
	// [2^e, 2^(e+1)), upper bound 2^(e+1).
	h.Observe(4) // bucket [4, 8), le = 8
	s := h.Snapshot()
	for i, le := range s.Bounds {
		switch {
		case le < 8 && s.Cumulative[i] != 0:
			t.Fatalf("cumulative at le=%g is %d, want 0", le, s.Cumulative[i])
		case le >= 8 && s.Cumulative[i] != 1:
			t.Fatalf("cumulative at le=%g is %d, want 1", le, s.Cumulative[i])
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	wantSum := 0.0
	for w := 0; w < workers; w++ {
		wantSum += float64((w + 1) * per)
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %g, want %g (CAS sum lost updates)", s.Sum, wantSum)
	}
	if last := s.Cumulative[len(s.Cumulative)-1]; last != workers*per {
		t.Fatalf("last cumulative = %d, want %d", last, workers*per)
	}
}

func TestRegistryLastWins(t *testing.T) {
	r := NewRegistry()
	first := counter(r, "fedzkt_rounds_total", "rounds")
	first.Add(10)
	second := counter(r, "fedzkt_rounds_total", "rounds")
	second.Add(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "fedzkt_rounds_total 2\n") {
		t.Fatalf("last-wins rebinding not reflected:\n%s", out)
	}
	if strings.Count(out, "# TYPE fedzkt_rounds_total") != 1 {
		t.Fatalf("name exported more than once:\n%s", out)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	counter(r, "app_ops_total", "operations").Add(3)
	gauge(r, "app_temp", "").Set(1.25)
	r.RegisterGaugeFunc("app_live", "live view", func() float64 { return 7 })
	h := histogram(r, "app_seconds", "durations")
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP app_ops_total operations\n# TYPE app_ops_total counter\napp_ops_total 3\n",
		"# TYPE app_temp gauge\napp_temp 1.25\n",
		"app_live 7\n",
		"# TYPE app_seconds histogram\n",
		"app_seconds_bucket{le=\"+Inf\"} 2\n",
		"app_seconds_sum 3.5\n",
		"app_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative counts must be non-decreasing across bucket lines.
	prev := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "app_seconds_bucket{") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("cumulative counts decreased at %q", line)
		}
		prev = n
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	counter(r, "b_counter", "").Add(5)
	gauge(r, "a_gauge", "").Set(0.5)
	h := histogram(r, "c_hist", "")
	h.Observe(1)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"a_gauge": 0.5`, `"b_counter": 5`, `"count":1`} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Keys sorted: a_gauge before b_counter before c_hist.
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_counter") ||
		strings.Index(out, "b_counter") > strings.Index(out, "c_hist") {
		t.Fatalf("keys not sorted:\n%s", out)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}
